"""Exact finite-alphabet probability: pmfs, kernels, joints, densities.

Core problem
------------
Everything downstream (rate bounds, binning simulation, hypothesis tests)
manipulates *exact* distributions on small product alphabets.  This module
provides the four value types and the handful of operations they need:

* ``Pmf``            -- distribution on one finite alphabet
* ``ConditionalPmf`` -- row-stochastic kernel (one Pmf per input letter)
* ``JointPmf``       -- distribution on a product alphabet, axes optionally named
* ``DensityTable``   -- pointwise log-quantity (information/entropy density)
                        defined on the support of a reference distribution

Conventions
-----------
* All logarithms are base 2; densities are in bits.
* Product alphabets index C-style; n-fold extensions order digits with the
  FIRST symbol most significant, so sequence (a_1 .. a_n) has flat index
  sum(a_t * s**(n-t)).  ``np.kron`` composes in exactly this order.
* One law check, ``_clean_probs``, decides what is a probability law:
  finite entries, entries down to -1e-15 clamped to 0 as float dust, total
  within ``NORM_TOL = 1e-12`` of 1 (per row for kernels).  It returns a
  read-only array, never renormalized.  Every law the program accepts passes
  it: ``Pmf``, ``JointPmf``, ``ConditionalPmf`` rows, ``AtomLaw`` masses,
  ``BinningRealization.w_mass`` and the flattened inputs of ``np_beta``,
  ``np_test``, ``beta_sandwich`` and ``BinaryTest.accept_mass``.
* Normalization of n-fold laws: the raw n-fold product of a one-letter
  table is divided by the n-fold product of its total (per row for
  kernels: the product of the row sums of the row's letters), folded as
  the table is (``_iid_divisor``).  That undoes the float drift of the
  one-letter totals, each within ``NORM_TOL`` of 1, and needs no pass over
  the n-fold table, so ``iid_extension`` and the rows streamed from
  factors (``_iid_rows``) divide by the same bits.  The streamed rows are
  not checked again: each law they extend was built through its
  constructor.
* One check per parameter kind decides every such parameter, raising
  ``DomainError``: ``check_blocklength`` (whole-number counts below 2^64),
  ``check_seed`` (64-bit indices), ``check_index`` (in-alphabet indices),
  ``check_positive`` (finite reals > 0, or >= 0), ``check_eps`` (eps in
  (0, 1)) and ``check_split`` (y in (1/2, 1)).  Integers are Python or
  numpy integers and reals Python or numpy reals, never bools or strings;
  each returns the Python int or float and shows a rejected one by ``_shown``.
* Ownership: a float64 ndarray that owns its data and is already read-only
  is kept as it is, not copied.  That is how the package hands over a table
  it has just built (``iid_extension``, the binning joints' marginals): it
  freezes the fresh array first, so each large table is alive once.  Any
  other input is copied, so a law never changes when a caller later writes
  to the array it passed in.
* Exact table sizes are capped (default 2**26 entries, override with the
  COORDSIM_MEM_CAP environment variable); blowing the cap raises
  ``ResourceLimitError`` with the required size attached.  An n-fold size
  |A|^n is judged by n log2|A| before the power is formed.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ResourceLimitError, ShapeError

NORM_TOL = 1e-12
_NEG_DUST = -1e-15

# =============================================================================
# memory cap
# =============================================================================


def memory_cap() -> int:
    """Maximum number of entries any exact table may hold.

    Reads COORDSIM_MEM_CAP (integer number of entries) on every call so tests
    can tighten it; defaults to 2**26.
    """
    raw = os.environ.get("COORDSIM_MEM_CAP")
    if raw is None:
        return 1 << 26
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"COORDSIM_MEM_CAP must be an integer, got {raw!r}") from exc
    return check_blocklength(cap, "COORDSIM_MEM_CAP")


def check_table_size(entries: int, what: str = "table", n: int = 1) -> None:
    """Raise ``ResourceLimitError`` if an exact table of ``entries ** n``
    cells would exceed the configured cap.  The power is formed only when
    n log2(entries) is at most 65 bits; a larger count, beyond any cap, is
    named by its exponent and attached as ``required=None``: it may take
    long to form and have more digits than Python prints."""
    cap = memory_cap()
    bits = n * math.log2(entries)
    count = entries ** n if bits <= 65 else None
    if count is None or count > cap:
        need = f"2^{bits:.1f}" if count is None else count
        raise ResourceLimitError(
            f"{what} needs {need} entries, cap is {cap} (set COORDSIM_MEM_CAP to raise it)",
            required=count,
        )


# =============================================================================
# validation helpers
# =============================================================================


def _clean_probs(arr, what: str, rows: bool = False) -> np.ndarray:
    """The one law check (see Conventions): finite, nonnegative up to float
    dust, total mass 1 within NORM_TOL -- per row of a 2-D array when
    ``rows``.  Returns a read-only array, never renormalized: ``arr``
    itself when it is a float64 ndarray that owns its data and is already
    read-only (a table the package built and froze; see Conventions), else
    a copy.  A kept array with float dust to clamp is copied first."""
    kept = (type(arr) is np.ndarray and arr.dtype == np.float64
            and arr.flags.owndata and not arr.flags.writeable)
    a = arr if kept else np.array(arr, dtype=np.float64, copy=True)
    if a.size == 0:
        raise ShapeError(f"{what} must be non-empty")
    # two reductions and no full-size mask: a NaN makes both NaN and an
    # infinity shows in one of them
    least, most = float(a.min()), float(a.max())
    if not (math.isfinite(least) and math.isfinite(most)):
        bad = np.unravel_index(int(np.argmin(np.isfinite(a))), a.shape)
        raise DomainError(f"{what} has a non-finite entry", index=bad)
    if least < _NEG_DUST:
        bad = np.unravel_index(int(np.argmin(a)), a.shape)
        raise DomainError(f"{what} has a negative entry {a[bad]!r}", index=bad)
    if least < 0:  # clamp -1e-15 < x < 0 float dust
        if not a.flags.writeable:
            a = a.copy()
        a[a < 0] = 0.0
    with np.errstate(over="ignore"):  # finite entries may sum to inf, rejected below
        total = a.sum(axis=1) if rows else a.sum()
    # per row, the row farthest from 1 is reported
    worst = int(np.argmax(np.abs(total - 1.0))) if rows else None
    total = float(total[worst] if rows else total)
    if abs(total - 1.0) > NORM_TOL:
        where = "" if worst is None else f" row {worst}"
        raise DomainError(f"{what}{where} sums to {total!r}, not 1 within {NORM_TOL}", index=worst)
    a.setflags(write=False)
    return a


def _shown(x) -> str:
    """``repr(x)`` for an error message, or the size of an int too long to print."""
    try:
        return repr(x)
    except ValueError:  # beyond sys.get_int_max_str_digits(), maybe inside a container
        return f"an int of {x.bit_length()} bits" if isinstance(x, int) else "an unprintable value"


def check_blocklength(n, name: str = "blocklength", least: int = 1) -> int:
    """``n`` as an int, unless it is not a whole number in [``least``,
    2^64): bools, strings and non-integral, NaN and infinite floats are
    rejected -- the one count check (blocklengths, trials, restarts, sizes,
    lengths).  The bound is ``check_seed``'s range, so a count always fits
    a float and a 64-bit index."""
    whole = isinstance(n, (int, np.integer)) or (isinstance(n, float) and n.is_integer())
    if isinstance(n, bool) or not whole or not least <= n < 2 ** 64:
        raise DomainError(f"{name} must be a whole number >= {least} and < 2^64, got {_shown(n)}")
    return int(n)


def _integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer; a bool is not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _real(x) -> bool:
    """Whether ``x`` is a Python or numpy real number; bools and strings
    are not."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def check_seed(index, name: str = "seed") -> int:
    """``index`` as a Python int, unless it is not a Python or numpy
    integer (a bool is not) in [0, 2^64) -- the one 64-bit index check, for
    seeds and for the trial index that keys Philox as seed | trial << 64."""
    if not (_integer(index) and 0 <= int(index) < 2 ** 64):
        raise DomainError(f"{name} must be a 64-bit unsigned integer, got {_shown(index)}")
    return int(index)


def check_index(index, size: int, name: str) -> int:
    """``index`` as a Python int, unless it is not a Python or numpy
    integer (a bool is not) in [0, size) -- the one in-alphabet index
    check, for flat sequence indices, digits and point masses."""
    if not (_integer(index) and 0 <= int(index) < size):
        raise DomainError(f"{name} must be an integer in [0, {size}), got {_shown(index)}")
    return int(index)


def check_positive(x, name: str, zero: bool = False) -> float:
    """``x`` as a float, unless it is not a finite real number > 0, or >= 0
    with ``zero`` (bools and strings are not) -- the one check of a gamma
    slack, a rate or a tradeoff parameter."""
    # abs(v) <= max is False for NaN and infinities, and exact for any int;
    # a numpy scalar compares as the Python number it holds (a float32
    # would cast max to inf)
    v = x.item() if isinstance(x, np.generic) else x
    if not (_real(x) and abs(v) <= sys.float_info.max and (v >= 0 if zero else v > 0)):
        least = ">=" if zero else ">"
        raise DomainError(f"{name} must be a finite real {least} 0, got {_shown(x)}")
    return float(v)


def check_eps(eps, message: str) -> float:
    """``eps`` as a float, unless it is not a real number strictly inside
    (0, 1) (bools and strings are not): then ``DomainError("<message>, got
    <eps>")`` -- the one spelling of that range check."""
    if not (_real(eps) and 0.0 < eps < 1.0):
        raise DomainError(f"{message}, got {_shown(eps)}")
    return float(eps)


def check_split(y) -> float:
    """``y`` as a float, unless the converse's split parameter is not a
    real number strictly inside (1/2, 1) -- the one spelling of that range
    check."""
    if not (_real(y) and 0.5 < y < 1.0):
        raise DomainError(f"split parameter y must lie in (0.5, 1), got {_shown(y)}")
    return float(y)


def _freeze(a: np.ndarray) -> np.ndarray:
    """Mark a table the package just built read-only, so a constructor
    keeps it without a copy (see Conventions), and return it."""
    a.setflags(write=False)
    return a


def _probs_of(obj) -> np.ndarray:
    """The probability array of a Pmf/JointPmf, or ``obj`` as a float array."""
    return obj.probs if isinstance(obj, (Pmf, JointPmf)) else np.asarray(obj, dtype=np.float64)


# =============================================================================
# value types
# =============================================================================


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on a finite alphabet {0, .., size-1}."""

    probs: np.ndarray

    def __post_init__(self):
        a = _clean_probs(self.probs, "Pmf")
        if a.ndim != 1:
            raise ShapeError(f"Pmf must be 1-D, got shape {a.shape}")
        object.__setattr__(self, "probs", a)

    @property
    def size(self) -> int:
        return self.probs.shape[0]

    @property
    def support(self) -> np.ndarray:
        """Boolean mask of letters with strictly positive mass."""
        return self.probs > 0.0

    @staticmethod
    def uniform(size: int) -> "Pmf":
        size = check_blocklength(size, "alphabet size")
        return Pmf(np.full(size, 1.0 / size))

    @staticmethod
    def point(size: int, index: int) -> "Pmf":
        size = check_blocklength(size, "alphabet size")
        index = check_index(index, size, "point mass index")
        p = np.zeros(size)
        p[index] = 1.0
        return Pmf(p)


@dataclass(frozen=True)
class ConditionalPmf:
    """Row-stochastic kernel: ``rows[x, y] = P(Y = y | X = x)``.

    ``fallback_rows`` marks input letters whose conditional was undefined in
    the source joint (zero marginal mass) and was replaced by the uniform row.
    It is None for kernels built directly from data.
    """

    rows: np.ndarray
    fallback_rows: np.ndarray | None = None

    def __post_init__(self):
        shape = np.shape(self.rows)
        if len(shape) != 2 or 0 in shape:
            raise ShapeError(f"ConditionalPmf rows must be a non-empty 2-D array, got shape {shape}")
        a = _clean_probs(self.rows, "ConditionalPmf", rows=True)
        object.__setattr__(self, "rows", a)
        if self.fallback_rows is not None:
            fb = np.array(self.fallback_rows, dtype=bool, copy=True)
            if fb.shape != (a.shape[0],):
                raise ShapeError("fallback_rows must have one flag per input letter")
            fb.setflags(write=False)
            object.__setattr__(self, "fallback_rows", fb)

    @property
    def input_size(self) -> int:
        return self.rows.shape[0]

    @property
    def output_size(self) -> int:
        return self.rows.shape[1]

    def row(self, x: int) -> Pmf:
        return Pmf(self.rows[x])


@dataclass(frozen=True)
class JointPmf:
    """Distribution on a product alphabet, one array axis per component.

    ``axes`` optionally names the components (e.g. ("u", "w", "v")); names are
    carried through marginalization so callers can address axes by meaning
    instead of position.
    """

    probs: np.ndarray
    axes: tuple[str, ...] | None = None

    def __post_init__(self):
        a = _clean_probs(self.probs, "JointPmf")
        if a.ndim < 1:
            raise ShapeError("JointPmf needs at least one axis")
        object.__setattr__(self, "probs", a)
        if self.axes is not None:
            names = tuple(self.axes)
            if len(names) != a.ndim:
                raise ShapeError(f"{len(names)} axis names for a rank-{a.ndim} joint")
            if len(set(names)) != len(names):
                raise ShapeError(f"duplicate axis names in {names}")
            object.__setattr__(self, "axes", names)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.probs.shape

    def axis_index(self, name_or_idx: str | int) -> int:
        if isinstance(name_or_idx, str):
            if self.axes is None or name_or_idx not in self.axes:
                raise ShapeError(f"joint has no axis named {name_or_idx!r} (axes={self.axes})")
            return self.axes.index(name_or_idx)
        idx = int(name_or_idx)
        if not -self.probs.ndim <= idx < self.probs.ndim:
            raise ShapeError(f"axis {idx} out of range for rank-{self.probs.ndim} joint")
        return idx % self.probs.ndim


@dataclass(frozen=True)
class DensityTable:
    """Pointwise log-quantity (bits) on the support of a reference law.

    ``values`` holds the density where ``support`` is True and NaN elsewhere;
    constructors guarantee on-support entries equal their defining logarithm
    to 1e-10.
    """

    values: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, copy=True)
        s = np.array(self.support, dtype=bool, copy=True)
        if v.shape != s.shape:
            raise ShapeError(f"values shape {v.shape} != support shape {s.shape}")
        if v.size and np.any(~np.isfinite(v[s])):
            raise DomainError("DensityTable has a non-finite on-support value")
        v[~s] = np.nan
        v.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "support", s)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


# =============================================================================
# distances and divergences
# =============================================================================


def l1_distance(p, q) -> float:
    """Total ``sum |p - q|`` between two distributions of matching shape.

    Accepts any mix of Pmf/JointPmf/plain arrays; only shapes must agree.
    The value is in [0, 2].
    """
    pa, qa = _probs_of(p), _probs_of(q)
    if pa.shape != qa.shape:
        raise ShapeError(f"l1_distance shape mismatch: {pa.shape} vs {qa.shape}")
    return float(np.abs(pa - qa).sum())


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence D(p || q) in bits.

    Raises ``DomainError`` (carrying the offending index) when p puts mass
    where q does not.
    """
    pa, qa = _probs_of(p), _probs_of(q)
    if pa.shape != qa.shape:
        raise ShapeError(f"kl_divergence shape mismatch: {pa.shape} vs {qa.shape}")
    viol = (pa > 0) & (qa <= 0)
    if np.any(viol):
        bad = np.unravel_index(int(np.argmax(viol)), pa.shape)
        raise DomainError("kl_divergence: p is not absolutely continuous w.r.t. q", index=bad)
    mask = pa > 0
    return float(np.sum(pa[mask] * (np.log2(pa[mask]) - np.log2(qa[mask]))))


# =============================================================================
# construction and shaping
# =============================================================================


def compose_chain(p_u: Pmf, w_given_u: ConditionalPmf, v_given_w: ConditionalPmf) -> JointPmf:
    """Joint law of a Markov chain U - W - V from its three factors.

    Returns the joint over axes ("u", "w", "v") with
    P(u, w, v) = p_u(u) * w_given_u(w|u) * v_given_w(v|w).
    """
    if w_given_u.input_size != p_u.size:
        raise ShapeError(
            f"w_given_u expects {w_given_u.input_size} input letters, p_u has {p_u.size}"
        )
    if v_given_w.input_size != w_given_u.output_size:
        raise ShapeError(
            f"v_given_w expects {v_given_w.input_size} input letters, "
            f"w_given_u outputs {w_given_u.output_size}"
        )
    probs = np.einsum("u,uw,wv->uwv", p_u.probs, w_given_u.rows, v_given_w.rows)
    return JointPmf(probs, axes=("u", "w", "v"))


def _axis_list(joint: JointPmf, spec) -> list[int]:
    """Indices of an axis spec: one axis name or index, or a sequence of
    them, in the order given."""
    return [joint.axis_index(a) for a in ((spec,) if isinstance(spec, (str, int)) else spec)]


def marginalize(joint: JointPmf, keep) -> Pmf | JointPmf:
    """Marginal of ``joint`` on the given axes (names or indices, any order
    accepted; result axes follow the joint's own axis order).

    Returns a Pmf when a single axis is kept, else a JointPmf (axis names
    preserved when present).
    """
    idxs = sorted(set(_axis_list(joint, keep)))
    if not idxs:
        raise ShapeError("marginalize must keep at least one axis")
    drop = tuple(i for i in range(joint.probs.ndim) if i not in idxs)
    marg = joint.probs.sum(axis=drop) if drop else joint.probs
    if len(idxs) == 1:
        return Pmf(marg)
    names = tuple(joint.axes[i] for i in idxs) if joint.axes is not None else None
    return JointPmf(marg, axes=names)


def conditional(joint: JointPmf, given) -> ConditionalPmf:
    """Conditional kernel of the remaining axes given ``given`` axes.

    Input letters enumerate the given axes (C-order over their product
    alphabet, in the joint's axis order); output letters enumerate the rest.
    Rows with zero marginal mass have no defined conditional: they are set to
    the uniform row and flagged in ``fallback_rows``.
    """
    gidx = sorted(set(_axis_list(joint, given)))
    if not gidx:
        raise ShapeError("conditional needs at least one conditioning axis")
    rest = [i for i in range(joint.probs.ndim) if i not in gidx]
    if not rest:
        raise ShapeError("conditional needs at least one target axis")
    flat = regroup_pair(joint, gidx, rest).probs
    row_mass = flat.sum(axis=1)
    fallback = row_mass <= 0.0
    rows = np.empty_like(flat)
    ok = ~fallback
    rows[ok] = flat[ok] / row_mass[ok, None]
    rows[fallback] = 1.0 / flat.shape[1]
    return ConditionalPmf(rows, fallback_rows=fallback)


def _iid_grow(out: np.ndarray, t: np.ndarray, grown: np.ndarray | None = None) -> np.ndarray:
    """One step of the left fold: the product so far ``out`` times each
    entry of ``t``, written straight into its slice of the interleaved axes
    (S_1, s_1, S_2, s_2, ...), a view of the grown table, so no step
    transposes.  Written into ``grown``, a C-contiguous array of the grown
    shape, if given."""
    if grown is None:
        grown = np.empty([size * s for size, s in zip(out.shape, t.shape)])
    wide = grown.reshape([x for size, s in zip(out.shape, t.shape) for x in (size, s)], copy=False)
    for idx in np.ndindex(t.shape):
        np.multiply(out, t[idx], out=wide[tuple(x for i in idx for x in (slice(None), i))])
    return grown


def _iid_table(t: np.ndarray, n: int) -> np.ndarray:
    """The n-fold product of the table ``t``, as a new array that owns its
    data: each axis of size s becomes one of size s**n, earlier symbols most
    significant.  The fold starts from the empty product, ones of side 1
    (n = 0), and 1.0 * x is exact, so the bits are those of ``np.kron``
    folded from the left."""
    out = np.ones([1] * t.ndim)
    for _ in range(n):
        out = _iid_grow(out, t)
    return out


def iid_extension(obj, n: int):
    """n-fold iid product of a Pmf, JointPmf, or ConditionalPmf.

    Each original axis becomes one composite axis of size ``s**n`` whose flat
    index reads the n symbols first-symbol-most-significant.  Axis names are
    preserved for joints.  Raises ``ResourceLimitError`` when the extended
    table would blow the memory cap.  The table is built once and frozen,
    so the law holds it without a copy.  It is divided by ``_iid_divisor``;
    a one-cell table folds at most twice: x^k / x^k = 1.0 at any k.
    """
    n = check_blocklength(n, "iid extension length")
    if not isinstance(obj, (Pmf, ConditionalPmf, JointPmf)):
        raise ShapeError(f"iid_extension does not handle {type(obj).__name__}")
    kernel = isinstance(obj, ConditionalPmf)
    t = obj.rows if kernel else obj.probs
    what = "iid kernel" if kernel else "iid pmf" if isinstance(obj, Pmf) else "iid joint"
    check_table_size(t.size, what, n)
    n = min(n, 2) if t.size == 1 else n
    full = _iid_table(t, n)
    np.divide(full, _iid_divisor(t, n, kernel), out=full)
    return ConditionalPmf(_freeze(full)) if kernel else replace(obj, probs=_freeze(full))


def _iid_divisor(t: np.ndarray, n: int, kernel: bool) -> np.ndarray:
    """What the raw n-fold product of ``t`` is divided by (see
    Conventions): the n-fold product of the one-letter total, or of a
    kernel's row sums, folded as the table is.  It has one entry, or one
    per row of a kernel's table."""
    return _iid_table(t.sum(axis=1 if kernel else None, keepdims=True), n)


# entries of an ``_IidRows`` factor and of one leaf of ``_iid_l1``: about
# 2 MB, so each stays small beside the tables while numpy's per-call cost
# stays a small share of the time
_BLOCK_CELLS = 1 << 18
# entries of one block of gathered rows or cells, of which a step holds a
# few temporaries: small beside a table of 2^20 entries
_GATHER_CELLS = 1 << 16


class _IidRows:
    """Rows of an n-fold table of ``iid_extension`` held as factors: the
    raw product ``pre`` of the first n - k letters, the one-letter table
    ``t`` (r, s), the k fold steps left, and the table's divisor
    (``_iid_divisor``).  ``_iid_rows`` takes the fewest steps k >= 1 that
    leave ``pre`` at most ``_BLOCK_CELLS`` entries, so it is about 2 MB or
    less at any n.  ``rows`` redoes the last k steps with the fold's own
    multiplies and divides by the same divisor, so every row keeps the full
    table's bits and the full table is never built.  (A plain class: each
    dataclass adds to the CLI's cold start.)"""

    def __init__(self, pre: np.ndarray, t: np.ndarray, steps: int, norm: np.ndarray):
        self.pre = pre      # (r**(n-k), s**(n-k)) raw (n-k)-fold product
        self.t = t          # (r, s) one-letter table
        self.steps = steps  # k, the fold steps from pre to the full table
        self.norm = norm    # the divisor: (1, 1), or a kernel's (r**n, 1)

    @property
    def shape(self) -> tuple[int, int]:
        """The full table's shape, (r**n, s**n)."""
        (r, s), k = self.t.shape, self.steps
        return self.pre.shape[0] * r ** k, self.pre.shape[1] * s ** k

    def rows(self, w, out=None) -> np.ndarray:
        """Rows ``w`` (flat indices in any order, repeats allowed) of the
        full table, with its bits: row w is pre[w // r**k] times, letter by
        letter, the t rows of the k digits of w % r**k, each step in the
        interleaved order of a fold step, then divided by the divisor.
        Written into ``out``, a C-contiguous (len(w), s**n) array, if
        given."""
        digits, hi = [], w
        for _ in range(self.steps):  # the last letters, least significant first
            hi, lo = np.divmod(hi, self.t.shape[0])
            digits.append(lo)
        rows = self.pre[hi]
        while digits:
            last = self.t[digits.pop()]
            (m, size), s = rows.shape, last.shape[1]
            grown = out if not digits and out is not None else np.empty((m, size * s))
            wide = grown.reshape((m, size, s), copy=False)
            for c in range(s):  # s strided passes: one broadcast over s is several times slower
                np.multiply(rows, last[:, c, None], out=wide[:, :, c])
            rows = grown
        return np.divide(rows, self.norm if self.norm.size == 1 else self.norm[w], out=rows)


def _pairwise_sum(leaf_sum, lo: int, hi: int, leaf: int):
    """numpy's ``sum`` of the flat range [lo, hi) of a contiguous float64
    buffer, by its own pairwise tree: a range of more than 128 entries
    splits at half its length rounded down to a multiple of 8.  A range of
    at most ``leaf`` entries is a leaf, summed by ``leaf_sum(lo, hi)``:
    ``np.sum`` of those entries sums it with the same tree.  Leaves are
    visited in order."""
    if hi - lo <= max(leaf, 128):
        return leaf_sum(lo, hi)
    half = (hi - lo) // 2
    half -= half % 8
    return _pairwise_sum(leaf_sum, lo, lo + half, leaf) + _pairwise_sum(leaf_sum, lo + half, hi, leaf)


def _iid_rows(obj, n: int) -> _IidRows:
    """The ``_IidRows`` of the n-fold law of a two-axis JointPmf or a
    ConditionalPmf, once its size passes ``check_table_size``: any row of
    the table ``iid_extension`` gives, with its bits, without the full
    table.  ``pre`` is the raw product of the first n - k letters, k >= 1
    the fewest fold steps that leave it at most ``_BLOCK_CELLS`` entries.
    A one-cell table folds at most twice: x^k / x^k = 1.0 at any k.

    ``obj`` must have been built through its constructor: its table then
    passed ``_clean_probs``, and the n-fold table, a product of its entries
    divided by the product of their totals, is not checked again."""
    kernel = isinstance(obj, ConditionalPmf)
    t = obj.rows if kernel else obj.probs
    check_table_size(t.size, "iid kernel" if kernel else "iid joint", n)
    if t.size == 1:
        n = min(n, 2)
    depth = n - 1
    while depth > 0 and t.size ** depth > _BLOCK_CELLS:
        depth -= 1
    return _IidRows(_freeze(_iid_table(t, depth)), t, n - depth, _iid_divisor(t, n, kernel))


def _iid_l1(table: np.ndarray, joint: JointPmf, n: int) -> float:
    """``np.abs(table - iid_extension(joint, n).probs).sum()``, with its
    bits, for a C-ordered (r**n, s**n) ``table`` and a two-axis ``joint``:
    numpy's pairwise tree (``_pairwise_sum``) over leaves of about
    ``_BLOCK_CELLS`` entries, each leaf's difference taken on the rows it
    touches (``_IidRows.rows``), so neither the iid table nor the
    difference is built."""
    iid = _iid_rows(joint, n)
    n_rows, n_cols = iid.shape
    flat = table.reshape(-1)

    def leaf_sum(lo, hi):
        r0, r1 = lo // n_cols, -(-hi // n_cols)
        block = iid.rows(np.arange(r0, r1)).reshape(-1)[lo - r0 * n_cols:hi - r0 * n_cols]
        np.subtract(flat[lo:hi], block, out=block)
        return np.sum(np.abs(block, out=block))

    return float(_pairwise_sum(leaf_sum, 0, n_rows * n_cols, _BLOCK_CELLS))


def sequence_digits(flat_index: int, base: int, n: int) -> tuple[int, ...]:
    """Decode a composite-axis flat index into its n symbols
    (first symbol most significant)."""
    n = check_blocklength(n, "sequence length")
    base = check_blocklength(base, "alphabet size")
    flat_index = check_index(flat_index, base ** n, "flat index")
    digits = []
    x = flat_index
    for _ in range(n):
        digits.append(x % base)
        x //= base
    return tuple(reversed(digits))


def sequence_index(digits, base: int) -> int:
    """Inverse of ``sequence_digits``."""
    base = check_blocklength(base, "alphabet size")
    idx = 0
    for d in digits:
        idx = idx * base + check_index(d, base, "digit")
    return idx


def regroup_pair(joint: JointPmf, left, right) -> JointPmf:
    """Reshape a multi-axis joint into a two-axis joint over composite
    alphabets ``left`` x ``right`` (axis names or indices; every axis must be
    used exactly once).  Flat indices enumerate each group C-style in the
    order given."""
    li, ri = _axis_list(joint, left), _axis_list(joint, right)
    used = li + ri
    if sorted(used) != list(range(joint.probs.ndim)):
        raise ShapeError(
            f"regroup_pair must use every axis exactly once, got {used} "
            f"for rank {joint.probs.ndim}"
        )
    moved = np.transpose(joint.probs, used)
    n_left = int(np.prod([joint.probs.shape[i] for i in li]))
    n_right = int(np.prod([joint.probs.shape[i] for i in ri]))
    return JointPmf(moved.reshape(n_left, n_right))


# =============================================================================
# densities
# =============================================================================


def pair_density(pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Information density of plain probability arrays over their last two
    axes; leading axes, if any, index independent laws.

    Returns (supp, vals): the support mask ``pair > 0`` and the values
    log2( P(a,b) / (P(a) P(b)) ) on it, 0.0 off it.  No validation: callers
    pass normalized nonnegative arrays.
    """
    supp = pair > 0
    # support of the joint implies support of both marginals; off it the
    # logs are -inf or NaN and are replaced by 0
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log2(pair) - np.log2(pair.sum(axis=-1, keepdims=True)) - np.log2(pair.sum(axis=-2, keepdims=True))
    return supp, np.where(supp, vals, 0.0)


def info_density(joint: JointPmf) -> DensityTable:
    """Information density table i(a; b) = log2( P(a,b) / (P(a) P(b)) ) for a
    two-axis joint, defined on the joint's support."""
    if joint.probs.ndim != 2:
        raise ShapeError(f"info_density needs a two-axis joint, got rank {joint.probs.ndim}")
    supp, vals = pair_density(joint.probs)
    return DensityTable(vals, supp)


def entropy_density(p: Pmf | JointPmf) -> DensityTable:
    """Entropy density table h(a) = -log2 P(a) on the support of ``p``."""
    with np.errstate(divide="ignore"):
        return DensityTable(-np.log2(p.probs), p.probs > 0)
