"""Exact verification of the Gaussian tail approximation.

The finite-blocklength bounds replace sums of iid information densities by
a Gaussian tail plus a Berry-Esseen remainder B/sqrt(n).  This module makes
that step checkable: it pushes a density forward into a scalar atom law,
builds the exact law of n iid copies over types (count vectors of the
atoms, each one multinomial mass), and measures the true worst-case gap
between the normalized tail and Q(t).

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
from .measures import _SQRT2, BEStats, support_weights, tie_groups
from .probability import DensityTable, JointPmf, Pmf, _clean_probs, check_blocklength, check_table_size


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


@dataclass(frozen=True)
class BEGapResult:
    """Measured CLT gap vs. its Berry-Esseen budget at one blocklength."""

    gap: float
    bound: float
    degenerate: bool


def _atom_law(values: np.ndarray, probs: np.ndarray) -> AtomLaw:
    """The law of plain arrays of values and their masses: one atom per tie
    group (``measures.tie_groups``) of the cells with positive mass, so a
    value off the masses' support (an inf or NaN log) is never read."""
    keep = probs > 0
    return AtomLaw(*tie_groups(values[keep], probs[keep])[1:])


def density_law(density: DensityTable, weights: Pmf | JointPmf) -> AtomLaw:
    """Pushforward of a density table under a weighting law: the scalar law
    of the density value at a random cell.

    Zero-mass support cells are dropped; weights off support raise
    ``DomainError`` (same contract as the moment computation).
    """
    return _atom_law(density.values, support_weights(density, weights))


def _types(n: int, *columns: np.ndarray) -> list[np.ndarray]:
    """``[log multinomial, c . col for each col]`` over every type c of n
    draws from k letters: the count vectors with sum n, C(n+k-1, k-1) of
    them, in lexicographic order of (c_0, ..., c_{k-1}).

    A type stands for its n!/prod(c_i!) sequences; the log multinomial is
    lf[n] - sum lf[c_i] with lf the log-factorial table (``math.lgamma``).
    Types are built one letter at a time: each parent with r draws left
    spawns r + 1 children with c_i = 0..r (one ``repeat`` and one reset
    ``cumsum``), and each column adds c_i * col[i] to its running dot
    product, so no (types x k) count matrix is ever held.  A -inf entry
    (the log of a zero mass) adds 0 where its count is 0.  The memory cap
    counts the types."""
    k = columns[0].size
    if k == 1:  # the one type c = (n), log multinomial 0: no table of n + 1 entries
        return [np.zeros(1), *(_count_times(np.array([float(n)]), col[0]) for col in columns)]
    check_table_size(math.comb(n + k - 1, k - 1), "n-fold types")
    lf = np.array([math.lgamma(j + 1.0) for j in range(n + 1)])
    left = np.array([n], dtype=np.int32)  # draws left for the letters after i
    dots = [np.zeros(1) for _ in columns]
    log_mult = np.full(1, lf[n])
    for i in range(k - 1):
        reps = left + 1
        step = np.ones(int(reps.sum()), dtype=np.int32)
        step[0] = 0
        step[np.cumsum(reps[:-1])] = -left[:-1]  # each parent restarts at 0
        c = np.cumsum(step, dtype=np.int32)
        left = np.repeat(left, reps) - c
        dots = [np.repeat(dot, reps) + _count_times(c, col[i]) for dot, col in zip(dots, columns)]
        log_mult = np.repeat(log_mult, reps) - lf[c]
    dots = [dot + _count_times(left, col[k - 1]) for dot, col in zip(dots, columns)]
    return [log_mult - lf[left], *dots]


def _count_times(c: np.ndarray, x: float) -> np.ndarray:
    """c * x, and 0 where c = 0 even for an infinite x (the log of a zero
    mass)."""
    return np.where(c > 0, x, 0.0) if np.isinf(x) else c * x


def convolve_n(law: AtomLaw, n: int) -> AtomLaw:
    """Exact law of the sum of n iid copies, over types.

    A type is a count vector c with sum n over the law's k atoms.  The sum
    takes the value c . values, one k-term dot product (so its rounding does
    not grow along a convolution path), with the multinomial mass
    exp(lf[n] - sum lf[c_i] + c . log probs).  There are exactly
    C(n+k-1, k-1) types; the memory cap (``COORDSIM_MEM_CAP``) counts them.
    The tie groups of the type values (``measures.tie_groups``) are the
    atoms (types with equal values, as on a lattice, share one), normalized
    once: at most C(n+k-1, k-1) atoms, and exactly that many when distinct
    types have values more than ``TIE_TOL`` apart."""
    n = check_blocklength(n)
    with np.errstate(divide="ignore"):
        log_mult, values, log_p = _types(n, law.values, np.log(law.probs))
    masses = np.exp(log_mult + log_p)
    del log_mult, log_p
    _, values, masses = tie_groups(values, masses)
    return AtomLaw(values, masses / masses.sum())


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
