"""Exact reference for the one-shot binning lemmas.

A uniform random binning of A into K bins is a uniformly drawn map
A -> {0, ..., K-1}.  The two lemma surfaces of one map are

* the index-uniformity L1: sum over (b, k) of |P(b, k) - P(b)/K|, with
  P(b, k) the mass of the letters a mapped to k;
* the stochastic-likelihood decoder error: 1 - sum over (a, b) of
  P(a, b) T(a|b) / Z(b, map(a)), with Z(b, k) the sum of T(a'|b) over the
  letters a' mapped to k (a term with Z = 0 counts 0).

``every_map`` averages both over all K^|A| maps, with no Monte Carlo
width.  ``by_subsets`` gives the same means from the law of one bin's
member set: under a uniform map each letter is in a given bin
independently with probability 1/K, and both surfaces are sums of terms
that each read one bin's members.  It stays small where the map count
does not (8 letters into 64 bins).  Both read T(a|b) as the joint's own
conditional, 0 in a column without mass, or as the given kernel.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from coordsim.probability import ConditionalPmf, JointPmf


def reference_conditional(joint: JointPmf, ref: ConditionalPmf | None) -> np.ndarray:
    """T(a|b) on the joint's (a, b) axes."""
    p = joint.probs
    if ref is not None:
        return ref.rows.T
    pb = p.sum(axis=0)
    return np.divide(p, pb, out=np.zeros_like(p), where=pb > 0)


def map_surfaces(p: np.ndarray, cond: np.ndarray, bins: np.ndarray, n_bins: int) -> tuple[float, float]:
    """(L1, decoder error) of the one map a -> bins[a]."""
    member = bins[:, None] == np.arange(n_bins)  # (a, k)
    pbk = p.T @ member  # (b, k)
    l1 = math.fsum(np.abs(pbk - p.sum(axis=0)[:, None] / n_bins).ravel())
    z = (cond.T @ member)[:, bins].T  # (a, b): Z(b, map(a))
    frac = np.divide(cond, z, out=np.zeros_like(cond), where=z > 0)
    return l1, 1.0 - math.fsum((p * frac).ravel())


def every_map(joint: JointPmf, n_bins: int, ref: ConditionalPmf | None = None) -> tuple[float, float]:
    """(mean L1, mean decoder error) over all n_bins^|A| maps."""
    p = joint.probs
    cond = reference_conditional(joint, ref)
    runs = [map_surfaces(p, cond, np.array(m), n_bins)
            for m in itertools.product(range(n_bins), repeat=p.shape[0])]
    return math.fsum(r[0] for r in runs) / len(runs), math.fsum(r[1] for r in runs) / len(runs)


def _subsets(size: int, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Every subset of ``size`` letters as a boolean row, with its chance
    of being exactly one bin's member set."""
    # an explicit shape: a one-letter A leaves ``size`` = 0 other letters,
    # whose one empty subset a -1 reshape cannot place
    rows = np.array(list(itertools.product((False, True), repeat=size)), dtype=bool)
    rows = rows.reshape(2 ** size, size)
    k = rows.sum(axis=1)
    return rows, (1.0 / n_bins) ** k * (1.0 - 1.0 / n_bins) ** (size - k)


def by_subsets(joint: JointPmf, n_bins: int, ref: ConditionalPmf | None = None) -> tuple[float, float]:
    """(mean L1, mean decoder error), each an expectation over the member
    set of one bin: K E|P(b, S) - P(b)/K| summed over b for the L1, and
    for the error the chance that a's bin holds exactly a and S, summed
    over the other letters' subsets S."""
    p = joint.probs
    cond = reference_conditional(joint, ref)
    n_a = p.shape[0]
    rows, weight = _subsets(n_a, n_bins)
    l1 = n_bins * math.fsum((weight[:, None] * np.abs(rows @ p - p.sum(axis=0) / n_bins)).ravel())
    success = []
    for a in range(n_a):
        others = np.delete(np.arange(n_a), a)
        rows, weight = _subsets(n_a - 1, n_bins)
        z = cond[a] + rows @ cond[others]  # (subsets, b)
        frac = np.divide(cond[a], z, out=np.zeros_like(z), where=z > 0)
        success.append(math.fsum((weight[:, None] * p[a] * frac).ravel()))
    return l1, 1.0 - math.fsum(success)
