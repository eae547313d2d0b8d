"""Information measures and the central-limit machinery behind them.

Everything here feeds the finite-blocklength rate bounds: mutual
information sets the asymptotic rates, the variance of the information
density (the dispersion) sets the square-root backoff, and the third
absolute moment drives the Berry-Esseen constant that prices how fast the
Gaussian approximation becomes trustworthy.

Moment conventions
------------------
Densities are in bits, so the moments are bits / bits^2 / bits^3.  The
Berry-Esseen constant used throughout is B = 6 T / V^(3/2) with T the third
absolute central moment and V the variance.

This module is the one home of that arithmetic: ``moments`` computes
(mu, V, T) for every caller (density tables, atom laws, the optimizer's
batches of plain arrays), ``backoff`` is the one spelling of the
dispersion term Q^-1(eps) sqrt(V/n), ``continuity_term`` of the converse's
g(eps).  Its parameter checks (count, 64-bit index, positive real, eps, y:
one function per kind) live in ``probability``, which uses them too.

Degeneracy policy: a variance below ``DEGENERATE_VAR`` is float dust from a
constant density, and ``moments`` reports it as exactly V = T = 0.  Nothing
else tests for degeneracy by magnitude.  A degenerate density (which happens
exactly for deterministic-copy chains) has no meaningful B; it is stored as
NaN and contributes 0 to any B/sqrt(n) penalty, and its backoff is exactly
0, since the underlying CLT gap is identically zero.

Tie policy: ascending values within ``TIE_TOL`` of their group's head,
its smallest value, are one point; only equal infinities tie with an
infinity.  ``_ordered_tie_groups`` sorts its input itself, in the order of
``np.argsort(kind="stable")`` bit for bit but found from an unstable
argsort and the ranks of the distinct values (``_stable_order``: one sort
of ``rank << b | index`` keys, no merge sort of the values), and is the
only sort-then-group, one summation per group, for n-fold atoms and
Neyman-Pearson groups of log2(p/q) alike; ``tie_groups`` gives the same
groups to callers that do not read the order, and sorts nothing when there
are at most ``_FEW_DISTINCT`` distinct values.  ``group_tail`` is the only
tail read (``cltverify.be_gap`` sums a law's tails in one pass), exact in
a group's value, and ``group_at`` the only threshold snap: a threshold
within ``TIE_TOL`` of a group is read at its value.

The tolerance is absolute.  An n-fold law's atoms are its types, each
value one k-term dot product c . v with rounding error about
k eps n max|v|, so distinct types with truly equal values (lattice and
entropy-density laws) stay within ``TIE_TOL`` of each other only while
n max|v| is below about 10^3; beyond that such types may split into
separate atoms.  Types with distinct values more than ``TIE_TOL`` apart
are never merged, at any n (BSC(0.11) keeps its n + 1 atoms at n = 10^4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .probability import (
    _GATHER_CELLS,
    ConditionalPmf,
    DensityTable,
    JointPmf,
    Pmf,
    check_blocklength,
    check_eps,
    info_density,
)

# variance below this (bits^2) is float dust from a constant density
DEGENERATE_VAR = 1e-20
# sorted values this close (bits) to their group's head are the same point
TIE_TOL = 1e-12


def tie_heads(x: np.ndarray) -> np.ndarray:
    """Start indices of the tie groups of the ascending array ``x``: index i
    starts a group when ``x[i] - x[head] > TIE_TOL`` for the current head.

    A step ``x[i] - x[i-1] > TIE_TOL`` is a break under the anchored rule
    too (float subtraction is monotone), so those come from one ``diff``;
    only runs between them whose head-to-tail span exceeds ``TIE_TOL`` are
    scanned value by value.  inf - inf is NaN, which never breaks, so equal
    infinities share a group.
    """
    if x.size == 0:
        return np.empty(0, dtype=np.intp)
    with np.errstate(invalid="ignore"):
        heads = np.concatenate(([0], np.flatnonzero(np.diff(x) > TIE_TOL) + 1))
        span = x[np.append(heads[1:], x.size) - 1]  # each run's tail value
        span -= x[heads]  # in place: one array fewer at the peak of a large law
        wide = np.flatnonzero(span > TIE_TOL)
    if wide.size == 0:
        return heads
    ends = np.append(heads[1:], x.size)
    extra = []
    for r in wide.tolist():
        start = int(heads[r])
        run = x[start : ends[r]].tolist()
        head = run[0]
        for i, v in enumerate(run):
            if v - head > TIE_TOL:
                extra.append(start + i)
                head = v
    return np.sort(np.concatenate((heads, np.array(extra, dtype=np.intp))))


# at most this many distinct values are grouped by ranks, without a sort
_FEW_DISTINCT = 32


def _ranks(x: np.ndarray, below: list) -> np.ndarray:
    """Each value's rank as ``uint8``: how many of the ascending distinct
    values ``below`` (all but the largest) it exceeds, one comparison pass
    per value; a NaN, never <=, counts past all."""
    rank = np.zeros(x.size, dtype=np.uint8)
    above = np.empty(x.size, dtype=bool)
    for v in below:
        np.less_equal(x, v, out=above)
        rank += np.logical_not(above, out=above)
    return rank


def _few_distinct(x: np.ndarray) -> np.ndarray | None:
    """The distinct values of ``x`` ascending (one of -0.0 and 0.0, every
    NaN one value, last), or None when there are more than
    ``_FEW_DISTINCT``: ``np.unique`` block by block, so no sorted copy of
    ``x`` is made, and an array of many values mostly stops at its first
    block, of ``4 * _FEW_DISTINCT`` values."""
    seen, b, step = np.empty(0), 0, 4 * _FEW_DISTINCT
    while b < x.size:
        seen = np.unique(np.concatenate((seen, x[b:b + step])))
        if seen.size > _FEW_DISTINCT:
            return None
        b, step = b + step, _GATHER_CELLS
    return seen


def _stable_order(x: np.ndarray) -> np.ndarray:
    """``np.argsort(x, kind="stable")``, bit for bit, without its merge sort.

    Equal values (under ``==``: -0.0 equals 0.0, and every NaN, sorted
    last, is one value) keep their input order.  One unstable ``np.sort``
    of the values counts the distinct ones (no hash table, so memory stays
    a few arrays of the input's size) and picks the route to that one
    order:

    * all distinct: any ascending argsort is the stable one;
    * otherwise: the ranks in sorted order, shifted left past an index's
      b bits, are or-ed with an unstable argsort, and one sort of those
      int64 keys ``rank << b | index`` puts each run of equal values back
      in input order.  A key fits 63 bits up to 2^31 values; a larger
      array takes the merge sort.
    """
    if x.size < 2:
        return np.argsort(x)
    s = np.sort(x)
    new = s[1:] != s[:-1]  # a value unlike the one before it starts a run
    new &= ~np.isnan(s[:-1])  # NaNs sort last and are one value
    del s
    if np.count_nonzero(new) == x.size - 1:  # all distinct
        return np.argsort(x)
    bits = (x.size - 1).bit_length()
    if bits > 31:
        return np.argsort(x, kind="stable")
    key = np.zeros(x.size, dtype=np.int64)
    np.cumsum(new, out=key[1:])
    del new
    key <<= bits
    key |= np.argsort(x)
    key.sort()
    key &= (1 << bits) - 1
    return key


def _ordered_tie_groups(x: np.ndarray, *masses: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(order, heads, values, *sums)`` of the values ``x``, in any order,
    and of each mass array aligned with them.

    ``order`` is ``_stable_order(x)``, the stable ascending argsort of ``x``
    (found from the ranks of its distinct values, bit-equal to
    ``np.argsort(x, kind="stable")``); ``heads`` are the ``tie_heads`` of
    the sorted values, group g being ``order[heads[g]:heads[g + 1]]`` with
    the value ``values[g]`` of its head; each mass array is summed over
    every group by one ``np.add.reduceat`` over its sorted copy (pairwise
    within a group, as a reduceat over the group's own slice would be, so
    the sums depend on where each group sits and need exactly that order).
    Empty input gives no groups."""
    order = _stable_order(x)
    x = x[order]
    heads = tie_heads(x)
    if heads.size == 0:
        return (order, heads, x, *(np.zeros(0) for _ in masses))
    x = x[heads]  # the sorted copy goes before the masses are sorted
    return (order, heads, x, *(np.add.reduceat(m[order], heads) for m in masses))


def tie_groups(x: np.ndarray, *masses: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(heads, values, *sums)`` of ``_ordered_tie_groups``, bit for bit,
    for callers that do not read the order.

    At most ``_FEW_DISTINCT`` distinct values (``_few_distinct``) are read
    without sorting ``x``.  Equal values never split a group, so the
    groups are ``tie_heads`` of the distinct values, and the heads the
    counts of the ranks below each group's first.  A group's value is its
    first rank's first value in input order, and its sorted masses are its
    ranks' masses gathered one rank after another, each in input order;
    ``np.add.reduceat`` sums such a slice as its first entry plus the
    pairwise sum of the rest, a sum that starts from -0.0 (so a group of
    -0.0 masses stays -0.0).  The gathers hold one group of one mass array
    at a time, and ``x`` is dropped once its values are read.
    """
    distinct = _few_distinct(x)
    if distinct is None:
        return _ordered_tie_groups(x, *masses)[1:]
    rank = _ranks(x, distinct[:-1].tolist())
    # np.bincount would copy the ranks to intp
    counts = np.array([np.count_nonzero(rank == r) for r in range(distinct.size)], dtype=np.intp)
    first = tie_heads(distinct)  # the first rank of each group
    values = np.array([x[np.argmax(rank == r)] for r in first.tolist()], dtype=x.dtype)
    del x
    ends = np.append(first[1:], distinct.size).tolist()

    def group_sums(m: np.ndarray) -> np.ndarray:
        sums = np.empty(first.size)
        for g, (r0, r1) in enumerate(zip(first.tolist(), ends)):
            m_g = [m[rank == r] for r in range(r0, r1)]
            m_g = m_g[0] if len(m_g) == 1 else np.concatenate(m_g)
            sums[g] = m_g[0] + np.add.reduce(m_g[1:], initial=-0.0)
            del m_g  # before the next group is gathered
        return sums

    return ((np.cumsum(counts) - counts)[first], values, *(group_sums(m) for m in masses))


def group_tail(values: np.ndarray, masses: np.ndarray, x: float, strict: bool) -> float:
    """Mass of the groups whose value (ascending ``values``) exceeds ``x``
    (``strict``) or reaches it: one ``searchsorted``, then the sum of the
    suffix.  A NaN threshold raises ``DomainError``."""
    if math.isnan(x):
        raise DomainError("tail threshold must not be NaN")
    k = np.searchsorted(values, x, side="right" if strict else "left")
    return float(masses[k:].sum())


def group_at(values: np.ndarray, x: float) -> float:
    """The nearest of the ascending ``values`` within ``TIE_TOL`` of ``x``,
    else ``x``: a threshold that close to a group is read at it, so values
    that differ only in their last bits read the same tails."""
    i = int(np.searchsorted(values, x))
    near = [v for v in values[max(i - 1, 0) : i + 1].tolist() if abs(v - x) <= TIE_TOL]
    return min(near, key=lambda v: abs(v - x)) if near else x


def moments(vals: np.ndarray, ws: np.ndarray, third: bool = True) -> tuple:
    """(mu, v, t3) of the values ``vals`` under the weights ``ws`` along the
    last axis: mean, variance and third absolute central moment.  1-D inputs
    give floats; a leading batch axis gives one law per row and arrays of
    moments.  v is exactly 0.0 where v < DEGENERATE_VAR, and so is t3.  With
    ``third=False`` (callers that need only the backoff) t3 is not computed
    and is NaN."""
    mu = np.vecdot(ws, vals)  # bitwise equal to np.dot on each row
    centered = vals - mu[..., None]
    v = np.vecdot(ws, centered * centered)  # bitwise equal to ** 2, cheaper dispatch
    kept = v >= DEGENERATE_VAR
    v = v * kept
    t3 = np.vecdot(ws, np.abs(centered) ** 3) * kept if third else math.nan
    if vals.ndim == 1:
        return float(mu), float(v), float(t3)
    return mu, v, t3


def backoff(v: float | np.ndarray, q_inv: float, n: int) -> float | np.ndarray:
    """Dispersion backoff q_inv * sqrt(v/n), elementwise over an array of
    variances (a float for a float v); exactly 0.0 where v = 0."""
    out = q_inv * np.sqrt(v / n) + 0.0  # + 0.0 turns the -0.0 of q_inv < 0 into 0.0
    return float(out) if out.ndim == 0 else out


def continuity_term(eps: float, uv_size: int) -> float:
    """g(eps) = 2 eps (log2|U x V| + log2(1/eps)): the per-symbol continuity
    slack the converse pays to turn a code entropy into a sum rate, for a
    (U, V) alphabet of ``uv_size`` pairs and eps in (0, 1)."""
    return 2.0 * eps * (math.log2(uv_size) + math.log2(1.0 / eps))


def support_weights(density: DensityTable, weights: Pmf | JointPmf) -> np.ndarray:
    """The probabilities of ``weights``, checked to match ``density``'s shape
    and to put no mass outside its support (``DomainError`` names the
    offending cell)."""
    w = weights.probs
    if w.shape != density.shape:
        raise ShapeError(f"weights shape {w.shape} != density shape {density.shape}")
    off = (w > 0) & ~density.support
    if np.any(off):
        bad = np.unravel_index(int(np.argmax(off)), w.shape)
        raise DomainError("weights put mass outside the density's support", index=bad)
    return w


@dataclass(frozen=True)
class BEStats:
    """First three moments of a density under a weighting law.

    mu  -- mean (bits)
    v   -- variance (bits^2); exactly 0.0 for degenerate densities
    t3  -- third absolute central moment (bits^3)
    b   -- Berry-Esseen constant 6 t3 / v^(3/2); NaN when v == 0
    """

    mu: float
    v: float
    t3: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.v) and math.isfinite(self.t3)):
            raise DomainError("BEStats moments must be finite")
        if self.v < 0 or self.t3 < 0:
            raise DomainError(f"BEStats needs v, t3 >= 0, got v={self.v}, t3={self.t3}")
        if self.v > 0:
            ref = 6.0 * self.t3 / self.v ** 1.5
            if not math.isfinite(self.b) or abs(self.b - ref) > 1e-10 * max(1.0, abs(ref)):
                raise DomainError(f"BEStats b={self.b} inconsistent with 6 t3 / v^1.5 = {ref}")
        elif not math.isnan(self.b):
            raise DomainError("degenerate BEStats (v = 0) must carry b = NaN")

    @classmethod
    def of(cls, vals: np.ndarray, ws: np.ndarray) -> "BEStats":
        """Statistics of the values ``vals`` under the weights ``ws``."""
        mu, v, t3 = moments(vals, ws)
        return cls(mu=mu, v=v, t3=t3, b=6.0 * t3 / v ** 1.5 if v > 0 else float("nan"))

    @property
    def degenerate(self) -> bool:
        return self.v == 0.0

    def b_over_sqrt_n(self, n: int) -> float:
        """Berry-Esseen penalty B / sqrt(n); 0 for degenerate densities."""
        n = check_blocklength(n)
        return 0.0 if self.degenerate else self.b / math.sqrt(n)


def be_stats(density: DensityTable, weights: Pmf | JointPmf) -> BEStats:
    """Moments of ``density`` under ``weights``.

    The weighting law must live on the density's support (mass off support
    raises ``DomainError`` with the offending cell).
    """
    w = support_weights(density, weights)
    mask = density.support
    return BEStats.of(density.values[mask], w[mask])


def mutual_information(joint: JointPmf) -> float:
    """Mutual information (bits) between the two axes of a joint."""
    return be_stats(info_density(joint), joint).mu


def dispersion_of_channel(p_in: Pmf, ch: ConditionalPmf) -> BEStats:
    """Moments of the input-output information density for ``p_in`` driving
    ``ch`` -- mean is the mutual information, v is the (unconditional)
    dispersion."""
    if ch.input_size != p_in.size:
        raise ShapeError(f"channel expects {ch.input_size} inputs, p_in has {p_in.size}")
    joint = JointPmf(p_in.probs[:, None] * ch.rows)
    return be_stats(info_density(joint), joint)


def conditional_dispersion(p_in: Pmf, ch: ConditionalPmf) -> float:
    """Input-conditional variance of the information density,
    E_X[ Var(i(X;Y) | X) ] -- the alternative dispersion form.

    Kept as a diagnostic: the bounds in this package use the unconditional
    variance, and the two genuinely differ off capacity-achieving inputs.
    """
    if ch.input_size != p_in.size:
        raise ShapeError(f"channel expects {ch.input_size} inputs, p_in has {p_in.size}")
    dens = info_density(JointPmf(p_in.probs[:, None] * ch.rows))
    # one law per input row; off-support cells, all cells of an input never
    # sent included, get value and weight 0 in place of their NaN density
    vals = np.where(dens.support, dens.values, 0.0)
    _, v, _ = moments(vals, np.where(dens.support, ch.rows, 0.0), third=False)
    return float(np.dot(p_in.probs, v))


# =============================================================================
# Gaussian tail
# =============================================================================

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gaussian_q(t: float) -> float:
    """Standard normal upper tail Q(t) = P(N(0,1) > t)."""
    return 0.5 * math.erfc(t / _SQRT2)


def gaussian_q_inv(eps: float) -> float:
    """Inverse upper tail: the t with Q(t) = eps, for eps in (0, 1).

    Bracketing bisection followed by Newton polish; the result satisfies
    |Q(t) - eps| <= 1e-12 everywhere in that range.  eps outside (0,1) raises
    ``DomainError``.
    """
    eps = check_eps(eps, "gaussian_q_inv needs eps in (0, 1)")
    lo, hi = -8.0, 8.0  # Q decreasing: Q(lo) > eps > Q(hi) once the bracket holds
    while gaussian_q(lo) < eps:
        lo *= 2.0
    while gaussian_q(hi) > eps:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if gaussian_q(mid) > eps:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    for _ in range(4):  # Newton on Q(t) - eps = 0, Q' = -phi
        phi = _INV_SQRT_2PI * math.exp(-0.5 * t * t)
        if phi <= 0.0:
            break
        step = (gaussian_q(t) - eps) / phi
        t_new = t + step
        if abs(gaussian_q(t_new) - eps) <= abs(gaussian_q(t) - eps):
            t = t_new
    return t
