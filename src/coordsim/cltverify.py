"""Exact verification of the Gaussian tail approximation.

The finite-blocklength bounds replace sums of iid information densities by
a Gaussian tail plus a Berry-Esseen remainder B/sqrt(n).  This module makes
that step checkable: it pushes a density forward into a scalar atom law,
convolves it exactly n times, and measures the true worst-case gap between
the normalized tail and Q(t).

The gap supremum is exact, not sampled: the tail of a discrete sum is a
step function of the threshold, so |tail - Q| is extremal only at atom
jump points, and evaluating both one-sided limits at every atom covers all
candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .measures import _SQRT2, BEStats, check_blocklength, group_tail, support_weights, tie_groups
from .probability import DensityTable, JointPmf, Pmf, _clean_probs, check_table_size


@dataclass(frozen=True)
class AtomLaw:
    """Law of a scalar statistic: strictly increasing atom values with
    their probabilities (a law by ``probability._clean_probs``)."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, copy=True)
        p = np.asarray(self.probs, dtype=np.float64)
        if v.ndim != 1 or p.ndim != 1 or v.shape != p.shape or v.size == 0:
            raise ShapeError(f"AtomLaw needs matching non-empty 1-D arrays, got {v.shape} / {p.shape}")
        if not np.all(np.isfinite(v)):
            raise DomainError("AtomLaw values must be finite")
        if np.any(np.diff(v) <= 0):
            bad = int(np.argmax(np.diff(v) <= 0))
            raise DomainError("AtomLaw values must be strictly increasing", index=bad + 1)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", _clean_probs(p, "AtomLaw"))

    @property
    def n_atoms(self) -> int:
        return self.values.shape[0]

    def tail_gt(self, x: float) -> float:
        """P(Z > x), strict."""
        return group_tail(self.values, self.probs, x, strict=True)

    def tail_ge(self, x: float) -> float:
        """P(Z >= x)."""
        return group_tail(self.values, self.probs, x, strict=False)


@dataclass(frozen=True)
class BEGapResult:
    """Measured CLT gap vs. its Berry-Esseen budget at one blocklength."""

    gap: float
    bound: float
    degenerate: bool


def _atom_law(values: np.ndarray, probs: np.ndarray) -> AtomLaw:
    """The law of plain 1-D arrays of values and their masses: one stable
    sort, then one atom per tie group (``measures.tie_groups``)."""
    order = np.argsort(values, kind="stable")
    values = values[order]
    probs = probs[order]
    del order
    heads, masses = tie_groups(values, probs)
    return AtomLaw(values[heads], masses)


def density_law(density: DensityTable, weights: Pmf | JointPmf) -> AtomLaw:
    """Pushforward of a density table under a weighting law: the scalar law
    of the density value at a random cell.

    Zero-mass support cells are dropped; weights off support raise
    ``DomainError`` (same contract as the moment computation).
    """
    w = support_weights(density, weights)
    mask = density.support & (w > 0)
    return _atom_law(density.values[mask], w[mask])


def _convolve(a: AtomLaw, b: AtomLaw) -> AtomLaw:
    check_table_size(a.n_atoms * b.n_atoms, "convolution grid")
    sums = np.add.outer(a.values, b.values).ravel()
    order = np.argsort(sums, kind="stable")
    sums = sums[order]
    masses = np.multiply.outer(a.probs, b.probs).ravel()[order]
    del order
    heads, masses = tie_groups(sums, masses)
    return AtomLaw(sums[heads], masses / masses.sum())


def convolve_n(law: AtomLaw, n: int) -> AtomLaw:
    """Exact law of the sum of n iid copies (atom merging; table sizes capped).
    Squares the t-fold power while its atom count is at most k t (k atoms in
    ``law``), then adds the remaining copies one letter at a time."""
    n = check_blocklength(n)
    result: AtomLaw | None = None
    power, t, bits = law, 1, n  # power is the t-fold law
    while bits:
        if bits & 1:
            result = power if result is None else _convolve(result, power)
        bits >>= 1
        # a square costs m^2 grid cells, t single-letter steps about k m t
        if not bits or power.n_atoms > law.n_atoms * t:
            break
        power, t = _convolve(power, power), 2 * t
    left = 2 * t * bits  # copies still to add
    if left and result is None:
        result, left = power, left - t
    for _ in range(left):
        result = _convolve(law, result)  # law first: k ascending runs, cheap to merge
    return result


def law_stats(law: AtomLaw) -> BEStats:
    """First three moments of an atom law (same conventions as be_stats)."""
    return BEStats.of(law.values, law.probs)


def be_gap(law: AtomLaw, n: int) -> BEGapResult:
    """Worst-case gap between the exact normalized tail of the n-fold sum
    and the Gaussian tail, next to its Berry-Esseen budget.

    gap   = sup_t | P{ S_n > n mu + t sqrt(n v) } - Q(t) |
    bound = B / sqrt(n)

    Degenerate laws (v = 0) have zero gap by convention: the sum is a
    constant and the statistic never normalizes; the flag marks it.
    """
    n = check_blocklength(n)
    stats = law_stats(law)
    if stats.degenerate:
        return BEGapResult(gap=0.0, bound=0.0, degenerate=True)
    total = convolve_n(law, n)
    scale = math.sqrt(n * stats.v)
    center = n * stats.mu
    # suffix sums: tail_ge[i] = P(S_n >= value_i); tail_gt[i] = P(S_n > value_i)
    suffix = np.concatenate([np.cumsum(total.probs[::-1])[::-1], [0.0]])
    # gaussian_q at every atom, bit for bit, without a Python-level loop
    q = 0.5 * np.frompyfunc(math.erfc, 1, 1)((total.values - center) / scale / _SQRT2).astype(float)
    worst = max(np.max(np.abs(suffix[:-1] - q)), np.max(np.abs(suffix[1:] - q)))
    return BEGapResult(gap=worst, bound=stats.b_over_sqrt_n(n), degenerate=False)
