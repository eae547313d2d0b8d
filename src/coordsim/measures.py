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
g(eps); ``check_eps`` and ``check_blocklength`` are the one eps and n checks.

Degeneracy policy: a variance below ``DEGENERATE_VAR`` is float dust from a
constant density, and ``moments`` reports it as exactly V = T = 0.  Nothing
else tests for degeneracy by magnitude.  A degenerate density (which happens
exactly for deterministic-copy chains) has no meaningful B; it is stored as
NaN and contributes 0 to any B/sqrt(n) penalty, and its backoff is exactly
0, since the underlying CLT gap is identically zero.

Tie policy: ascending values within ``TIE_TOL`` of their group's head,
its smallest value, are one point; only equal infinities tie with an
infinity.  ``tie_groups`` is the one grouping (with one summation per
group) and ``group_tail`` the one tail, which counts a group by that
value, compared exactly.  Atoms of an n-fold law and Neyman-Pearson
groups of log2(p/q) are both these groups; a converse witness reads a
candidate threshold within ``TIE_TOL`` of a group's value at that value.

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
from .probability import ConditionalPmf, DensityTable, JointPmf, Pmf, info_density

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
        tails = np.append(heads[1:], x.size) - 1
        wide = np.flatnonzero(x[tails] - x[heads] > TIE_TOL)
    if wide.size == 0:
        return heads
    extra = []
    for r in wide.tolist():
        start = int(heads[r])
        run = x[start : tails[r] + 1].tolist()
        head = run[0]
        for i, v in enumerate(run):
            if v - head > TIE_TOL:
                extra.append(start + i)
                head = v
    return np.sort(np.concatenate((heads, np.array(extra, dtype=np.intp))))


def tie_groups(x: np.ndarray, *masses: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(heads, *sums)``: the ``tie_heads`` of the ascending array ``x``
    and, for each mass array aligned with ``x``, its sum over every group
    from one ``np.add.reduceat`` (pairwise within a group, as a reduceat
    over the group's own slice would be).  Group g is
    ``heads[g]:heads[g + 1]`` and stands for the value ``x[heads[g]]``.
    Empty input gives no groups."""
    heads = tie_heads(x)
    if heads.size == 0:
        return (heads, *(np.zeros(0) for _ in masses))
    return (heads, *(np.add.reduceat(m, heads) for m in masses))


def group_tail(values: np.ndarray, masses: np.ndarray, x: float, strict: bool) -> float:
    """Mass of the groups whose value (ascending ``values``) exceeds ``x``
    (``strict``) or reaches it: one ``searchsorted``, then the sum of the
    suffix.  A NaN threshold raises ``DomainError`` (``check_threshold``)."""
    k = np.searchsorted(values, check_threshold(x), side="right" if strict else "left")
    return float(masses[k:].sum())


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


def check_threshold(x: float) -> float:
    """``x`` itself, unless it is NaN (``DomainError``): a tail P(Z > x) or
    P(Z >= x) at a NaN threshold is not a probability of anything."""
    if math.isnan(x):
        raise DomainError("tail threshold must not be NaN")
    return x


def check_eps(eps: float, message: str) -> None:
    """Raise ``DomainError("<message>, got <eps>")`` unless ``eps`` is a real
    number strictly inside (0, 1) -- the one spelling of that range check."""
    if not (isinstance(eps, (int, float)) and 0.0 < eps < 1.0):
        raise DomainError(f"{message}, got {eps!r}")


def check_blocklength(n, least: int = 1) -> int:
    """``n`` as an int, unless it is not a whole number >= ``least``
    (``DomainError("blocklength ...")``): bools and non-integral, NaN and
    infinite floats are rejected -- the one blocklength check."""
    whole = isinstance(n, (int, np.integer)) or (isinstance(n, float) and n.is_integer())
    if isinstance(n, bool) or not whole or n < least:
        raise DomainError(f"blocklength must be a whole number >= {least}, got {n!r}")
    return int(n)


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
    if joint.probs.ndim != 2:
        raise ShapeError(f"mutual_information needs a two-axis joint, got rank {joint.probs.ndim}")
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
    joint = JointPmf(p_in.probs[:, None] * ch.rows)
    dens = info_density(joint)
    total = 0.0
    for x in range(p_in.size):
        px = p_in.probs[x]
        if px <= 0:
            continue
        row_mask = dens.support[x]
        total += px * moments(dens.values[x][row_mask], ch.rows[x][row_mask])[1]
    return total


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
    check_eps(eps, "gaussian_q_inv needs eps in (0, 1)")
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
