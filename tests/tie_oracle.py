"""Per-element references for the exact verifiers' tie groups.

These are the straightforward forms of ``cltverify``'s atom merge (with
the n-fold law over types built on it) and of ``nptest``'s likelihood-ratio
tie groups and Neyman-Pearson solver: one Python step per type and per
sorted value, with the head of the current group (its smallest value) kept
as the anchor.  Each group's mass is one ``np.add.reduceat`` over that
group's own slice.  The library computes the same groups with
``measures.tie_groups``; the differential tests require equal bits from
both.

The two convolution schedules the library used before it enumerated types
(squaring while the power stays small, then single letters; and pure
binary exponentiation) live on here as references for the atoms, not for
their last bits.
"""

from __future__ import annotations

import math

import numpy as np

from coordsim.cltverify import AtomLaw
from coordsim.errors import CoordsimError
from coordsim.measures import gaussian_q
from coordsim.nptest import PREMISE_TOL, NPResult

TIE_TOL = 1e-12


def _group_mass(masses: np.ndarray) -> float:
    """The mass of one group, summed over the group's own slice."""
    return float(np.add.reduceat(masses, [0])[0])


def merge_sorted(values: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coalesce already-sorted atoms within TIE_TOL of their group's head."""
    starts: list[int] = []
    for i, v in enumerate(values):
        if starts and v - values[starts[-1]] <= TIE_TOL:
            continue
        starts.append(i)
    ends = starts[1:] + [len(values)]
    return (
        np.array([float(values[s]) for s in starts]),
        np.array([_group_mass(probs[s:e]) for s, e in zip(starts, ends)]),
    )


def compositions(n: int, k: int):
    """Every count vector of k letters summing to n, in lexicographic order."""
    if k == 1:
        yield (n,)
        return
    for c in range(n + 1):
        for rest in compositions(n - c, k - 1):
            yield (c, *rest)


def type_convolve_n(law: AtomLaw, n: int) -> AtomLaw:
    """n-fold sum law type by type: each type's value c . values and log
    multinomial mass summed left to right as the library does, one stable
    sort, ``merge_sorted``, one normalization."""
    lf = [math.lgamma(j + 1.0) for j in range(n + 1)]
    logp = np.log(law.probs)
    values, logs = [], []
    for counts in compositions(n, law.n_atoms):
        value, log_p, log_mult = 0.0, 0.0, lf[n]
        for c, v, lp in zip(counts, law.values, logp):
            value += c * float(v)
            log_p += c * float(lp)
            log_mult -= lf[c]
        values.append(value)
        logs.append(log_mult + log_p)
    values = np.array(values)
    masses = np.exp(np.array(logs))
    order = sorted(range(values.size), key=lambda i: values[i])
    merged_v, merged_p = merge_sorted(values[order], masses[order])
    return AtomLaw(merged_v, merged_p / merged_p.sum())


def _convolve(a: AtomLaw, b: AtomLaw) -> AtomLaw:
    sums = np.add.outer(a.values, b.values).ravel()
    masses = np.multiply.outer(a.probs, b.probs).ravel()
    order = np.argsort(sums, kind="stable")
    merged_v, merged_p = merge_sorted(sums[order], masses[order])
    return AtomLaw(merged_v, merged_p / merged_p.sum())


def convolve_n(law: AtomLaw, n: int) -> AtomLaw:
    """n-fold sum law by the schedule the library used before types: square the
    t-fold power while its atom count is at most k t (k atoms in ``law``),
    then add the remaining copies one letter at a time, law first."""
    result = None
    power, t = law, 1
    bits = n
    while bits:
        if bits & 1:
            result = power if result is None else _convolve(result, power)
        bits >>= 1
        if not bits or power.n_atoms > law.n_atoms * t:
            break
        power, t = _convolve(power, power), 2 * t
    left = 2 * t * bits
    if left and result is None:
        result, left = power, left - t
    for _ in range(left):
        result = _convolve(law, result)
    return result


def convolve_n_squaring(law: AtomLaw, n: int) -> AtomLaw:
    """n-fold sum law by pure binary exponentiation (right to left), the
    schedule before single-letter steps: a reference for the atoms, not
    for their last bits."""
    result = None
    power = law
    k = n
    while k:
        if k & 1:
            result = power if result is None else _convolve(result, power)
        k >>= 1
        if k:
            power = _convolve(power, power)
    return result


def be_gap_worst(total: AtomLaw, center: float, scale: float) -> float:
    """sup over atoms of |tail - Q(t)|, both one-sided limits, atom by atom."""
    suffix = np.concatenate([np.cumsum(total.probs[::-1])[::-1], [0.0]])
    worst = 0.0
    for i, x in enumerate(total.values):
        q = gaussian_q((x - center) / scale)
        worst = max(worst, abs(suffix[i] - q), abs(suffix[i + 1] - q))
    return worst


def _same_llr(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TIE_TOL


def llr_groups(p: np.ndarray, q: np.ndarray) -> list:
    """Tie groups of log2(p/q) over the p-support, in increasing order, as
    (smallest llr, p_mass, q_mass, outcome_indices) tuples."""
    sup = np.flatnonzero(p > 0)
    with np.errstate(divide="ignore"):
        llr = np.log2(p[sup] / q[sup])
    order = np.argsort(llr, kind="stable")
    lv = llr[order]
    groups = []
    start = 0
    for i in range(1, order.size + 1):
        if i == order.size or not _same_llr(float(lv[start]), float(lv[i])):
            idx = sup[order[start:i]]
            groups.append((float(lv[start]), _group_mass(p[idx]), _group_mass(q[idx]), idx))
            start = i
    return groups


def np_solve(groups: list, n_outcomes: int, alpha: float):
    """(NPResult, decision vector): accept whole groups from the top,
    randomize the one that reaches alpha."""
    decision = np.zeros(n_outcomes)
    beta = 0.0
    cum = 0.0
    for g_llr, gp, gq, idx in reversed(groups):
        remaining = alpha - cum
        if gp >= remaining:
            theta = remaining / gp
            beta += theta * gq
            decision[idx] = theta
            achieved = cum + theta * gp
            if abs(achieved - alpha) > PREMISE_TOL:
                raise CoordsimError(
                    f"acceptance mass {achieved!r} missed alpha {alpha!r}"
                )
            return NPResult(beta=float(beta), threshold=g_llr, randomization=float(theta)), decision
        beta += gq
        cum += gp
        decision[idx] = 1.0
    raise CoordsimError("total p-mass fell below alpha; law was not normalized")
