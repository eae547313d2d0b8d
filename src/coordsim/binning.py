"""Exact small-blocklength realization of the random-binning coordination
scheme, plus the one-shot binning lemmas it is built from.

The scheme
----------
Fix a decomposition U - W - V and a blocklength n.  Three independent
uniform binnings of the W-sequence space are drawn:

* phi_c -> C   (common randomness,   floor(2^(n R0)) bins)
* phi_m -> M   (message,             floor(2^(n R))  bins)
* phi_f -> F   (extra shared seed,   floor(2^(n Rt)) bins)

Two joint laws matter.  P^RB ("reverse" direction) draws (U^n, W^n) iid
from the chain and reads the bin indices off W^n; its (U,W,V) marginal is
the iid chain *exactly*.  P^RC (the operational protocol) draws F, C
uniformly, synthesizes W^n from the encoder conditional P^RB(w | f, c, u),
transmits M = phi_m(W^n), reconstructs What^n with the mismatch stochastic
likelihood coder over the triple bin, and emits V^n from What^n.  Good
coordination means the (U^n, V^n) marginal of P^RC is L1-close to the iid
target, and the analysis prices that through three exact tail terms
(eps_app / eps_dec / eps_app2) combined into eps_tot.

Everything here is exact per realization: joints are held factored (iid
tables plus bin maps) and only requested marginals are materialized, so
the memory cost is the size of what you ask for, never the seven-axis
product.

Layout
------
Per realization, W^n is sorted once (stably) by its (f, c, m) triple key
(f * bins_c + c) * bins_m + m.  Every realized (f, c) key, every realized
triple and every realized f value is then a contiguous range of rows, and
the gathered w-major tables (P(u, w) rows, P(v | w) rows, P(w)) reduce to
per-key and per-triple tables by segment sums: the encoder normalizers
Z[key, u] (which are also the realized (U^n, F, C) surface), the encoder
mass pu * enc with both fallbacks, and the decoder's reference mass.  The
decoder posterior depends on w only through its triple, so its V law is
computed once per triple, P(V^n | triple) = sum_w P(w) P(v | w) / Z_triple,
and the protocol's (U^n, V^n) law under seed f is one matmul of the
per-triple encoder mass against those laws.  Both joints are weighted path
tables over the same layout: ``RbJoint`` has one row per sequence,
``RcJoint`` one per encoder row plus the w0 rows of the encoder aborts and
of the unhit (f, c) keys; a marginal sums the rows per requested index and
spreads the result over the decoder posterior of each row's triple.

Conventions
-----------
Sequences index their composite axis first-symbol-most-significant.  The
fallback sequence w0 is the lowest flat index with reference mass (flat
index 0 whenever p_W(0) > 0).
Fallbacks: an encoder conditional with no mass falls back to the reference
restricted to the bin; if the bin carries no reference mass at all the
encoder emits w0 and the path counts as an abort.  A decoder triple bin
with no reference mass likewise outputs w0 and aborts.  RNG is the
counter-based Philox generator; trial t of a config with seed s uses the
128-bit key s | (t << 64), so trials are reproducible individually and in
parallel, and no two (seed, trial) pairs share a stream.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cltverify import _atom_law, convolve_n
from .errors import DomainError, ResourceLimitError, ShapeError
from .measures import check_blocklength
from .probability import (
    ConditionalPmf,
    JointPmf,
    Pmf,
    _clean_probs,
    check_table_size,
    iid_extension,
    marginalize,
    regroup_pair,
)
from .region import Decomposition, GammaTriple, parse_gamma_rule

# =============================================================================
# configuration
# =============================================================================


def _bin_count(rate: float, n: int, what: str) -> int:
    """floor(2^(n*rate)) with snapping against float dust, at least 1."""
    if rate < 0 or not math.isfinite(rate):
        raise DomainError(f"{what} must be a finite nonnegative rate, got {rate!r}")
    exponent = n * rate
    if exponent > 60:
        raise ResourceLimitError(
            f"{what}: 2^({n}*{rate}) bins exceed the 62-bit index range",
            required=2 ** 62,
        )
    raw = 2.0 ** exponent
    snapped = round(raw)
    if abs(raw - snapped) < 1e-6:
        return max(1, int(snapped))
    return max(1, int(math.floor(raw)))


@dataclass(frozen=True)
class SchemeConfig:
    """Blocklength, rates, seed, and the decomposition a scheme runs on.

    Bin counts are floor(2^(n*rate)), clamped to >= 1; `effective_rates`
    reports log2(bins)/n, which differs from the nominal rates whenever
    rounding bites.
    """

    n: int
    rate_r: float
    rate_r0: float
    rate_rtilde: float
    seed: int
    decomposition: Decomposition

    def __post_init__(self):
        object.__setattr__(self, "n", check_blocklength(self.n))
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2 ** 64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        # materialize the counts now so bad rates fail at construction
        self.bin_counts()

    def bin_counts(self) -> tuple[int, int, int]:
        """(bins_f, bins_c, bins_m) for the (Rt, R0, R) rates."""
        bf = _bin_count(self.rate_rtilde, self.n, "rate_rtilde")
        bc = _bin_count(self.rate_r0, self.n, "rate_r0")
        bm = _bin_count(self.rate_r, self.n, "rate_r")
        if math.log2(bf) + math.log2(bc) + math.log2(bm) > 62:
            raise ResourceLimitError("combined bin indices exceed the 62-bit range", required=2 ** 62)
        return bf, bc, bm

    def effective_rates(self) -> tuple[float, float, float]:
        """(R, R0, Rt) actually realized after integer rounding."""
        bf, bc, bm = self.bin_counts()
        return (math.log2(bm) / self.n, math.log2(bc) / self.n, math.log2(bf) / self.n)


@dataclass(frozen=True)
class BinningRealization:
    """One drawn triple of total bin maps over the W-sequence space.

    Carries the reference iid W^n mass so the stochastic likelihood coder
    is self-contained; total-map validity is enforced at construction.
    """

    phi_f: np.ndarray
    phi_c: np.ndarray
    phi_m: np.ndarray
    bins_f: int
    bins_c: int
    bins_m: int
    w_mass: np.ndarray

    def __post_init__(self):
        n_seq = np.shape(self.phi_f)[:1]  # phi_f may still be a list here
        for name, arr, bins in (
            ("phi_f", self.phi_f, self.bins_f),
            ("phi_c", self.phi_c, self.bins_c),
            ("phi_m", self.phi_m, self.bins_m),
        ):
            a = np.array(arr, dtype=np.int64, copy=True)
            if a.ndim != 1 or a.shape != n_seq or a.shape[0] == 0:
                raise ShapeError(f"{name} must be a non-empty 1-D map over W^n")
            if a.min() < 0 or a.max() >= bins:
                raise DomainError(f"{name} has an image outside [0, {bins})")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        w = _clean_probs(self.w_mass, "w_mass")
        if w.shape != self.phi_f.shape:
            raise ShapeError("w_mass must align with the bin maps")
        object.__setattr__(self, "w_mass", w)

    @property
    def n_sequences(self) -> int:
        return self.phi_f.shape[0]

    def triple_members(self, f: int, c: int, m: int) -> np.ndarray:
        """Flat indices of the sequences binned to (f, c, m)."""
        if not (0 <= f < self.bins_f and 0 <= c < self.bins_c and 0 <= m < self.bins_m):
            raise DomainError(f"bin triple ({f},{c},{m}) out of range")
        return np.where((self.phi_f == f) & (self.phi_c == c) & (self.phi_m == m))[0]


def draw_binning(cfg: SchemeConfig, trial: int = 0) -> BinningRealization:
    """Draw the three independent uniform bin maps for trial ``trial``.

    Uses Philox with the 128-bit key seed | (trial << 64): each (seed,
    trial) pair is its own stream, so realizations are reproducible no
    matter how trials are scheduled, and distinct seeds never share a draw.
    """
    if trial < 0:
        raise DomainError(f"trial index must be >= 0, got {trial}")
    d = cfg.decomposition
    n_w = d.w_size ** cfg.n
    check_table_size(n_w, "binning map")
    bf, bc, bm = cfg.bin_counts()
    rng = np.random.Generator(np.random.Philox(key=cfg.seed | (trial << 64)))
    phi_f = rng.integers(0, bf, size=n_w, dtype=np.int64)
    phi_c = rng.integers(0, bc, size=n_w, dtype=np.int64)
    phi_m = rng.integers(0, bm, size=n_w, dtype=np.int64)
    w_mass = iid_extension(_w_marginal(d), cfg.n).probs
    return BinningRealization(
        phi_f=phi_f, phi_c=phi_c, phi_m=phi_m,
        bins_f=bf, bins_c=bc, bins_m=bm, w_mass=w_mass,
    )


def _w_marginal(d: Decomposition) -> Pmf:
    return marginalize(d.joint(), "w")


def slc_posterior(b: BinningRealization, f: int, c: int, m: int) -> tuple[Pmf, bool]:
    """Decoder posterior over W^n for bin triple (f, c, m): the reference
    mass restricted to the triple bin, renormalized.

    Returns (pmf, aborted).  A triple bin that is empty or carries zero
    reference mass cannot be renormalized: the decoder outputs the fixed
    fallback sequence w0 and the abort flag is set.
    """
    members = b.triple_members(f, c, m)
    out = np.zeros(b.n_sequences)
    mass = b.w_mass[members]
    total = float(mass.sum())
    if members.size == 0 or total <= 0.0:
        out[np.flatnonzero(b.w_mass > 0)[0]] = 1.0
        return Pmf(out), True
    out[members] = mass / total
    return Pmf(out), False


# =============================================================================
# factored scheme tables
# =============================================================================


@dataclass(frozen=True)
class _Tables:
    """iid blocks shared by every per-realization computation.  The V^n
    kernel and the (U^n, V^n) target are built on first read: a (u, w)
    marginal never reads them."""

    d: Decomposition
    n: int
    n_u: int
    n_w: int
    n_v: int
    pu: np.ndarray        # (n_u,)
    pwu: np.ndarray       # (n_w, n_u) joint, w-major so sorted rows gather contiguously
    pw: np.ndarray        # (n_w,)
    w0: int               # fallback sequence: the lowest flat index with reference mass

    @cached_property
    def pvn(self) -> np.ndarray:
        """(n_w, n_v) kernel rows."""
        return iid_extension(self.d.v_given_w, self.n).rows

    @cached_property
    def target_uv(self) -> np.ndarray:
        """(n_u, n_v) iid target."""
        uv = regroup_pair(marginalize(self.d.joint(), ("u", "v")), "u", "v")
        return iid_extension(uv, self.n).probs


def _tables(d: Decomposition, n: int) -> _Tables:
    n_u, n_w, n_v = d.u_size ** n, d.w_size ** n, d.v_size ** n
    check_table_size(max(n_u * n_w, n_w * n_v, n_u * n_v), "scheme tables")
    pwu = iid_extension(regroup_pair(marginalize(d.joint(), ("w", "u")), "w", "u"), n).probs
    pw = pwu.sum(axis=1)
    return _Tables(
        d=d, n=n, n_u=n_u, n_w=n_w, n_v=n_v,
        pu=pwu.sum(axis=0), pwu=pwu, pw=pw, w0=int(np.flatnonzero(pw > 0)[0]),
    )


def _runs(sorted_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run id of each element, row offsets (runs + 1,)) of the runs of
    equal values in a sorted array."""
    change = sorted_vals[1:] != sorted_vals[:-1]
    ids = np.concatenate(([0], np.cumsum(change)))
    bounds = np.concatenate(([0], np.flatnonzero(change) + 1, [sorted_vals.size]))
    return ids, bounds


def _segment_sums(x: np.ndarray, ids: np.ndarray, n_seg: int) -> np.ndarray:
    """Sums of the rows of ``x`` (1-D or 2-D) per segment id, in row order.

    One ``np.bincount`` over flat (segment, column) cells: on many short
    segments of wide rows it is several times faster than
    ``np.add.reduceat``, which loops over every (segment, column) pair.
    """
    if x.ndim == 1:
        return np.bincount(ids, weights=x, minlength=n_seg)
    n_col = x.shape[1]
    cells = (ids[:, None] * n_col + np.arange(n_col)).ravel()
    sums = np.bincount(cells, weights=x.ravel(), minlength=n_seg * n_col)
    return sums.reshape(n_seg, n_col)


@dataclass(frozen=True)
class _SortedLayout:
    """W^n sorted once by its (f, c, m) triple, with the encoder tables.

    Row r of every (n_w, ...) array is sequence ``order[r]``.  Realized key
    j = (f, c) owns rows key_bounds[j]:key_bounds[j+1], realized triple i
    owns rows trip_bounds[i]:trip_bounds[i+1], and realized f values own
    the rows between consecutive ``f_bounds``.  The sort is stable, so rows
    keep increasing flat order inside a triple.  Every per-key and
    per-triple table is a segment sum over these rows.
    """

    order: np.ndarray        # (n_w,) flat w index of each row
    keys: np.ndarray         # (K,) realized (f, c) keys f * bins_c + c, increasing
    key_bounds: np.ndarray   # (K + 1,) row offsets of the key segments
    trip_ids: np.ndarray     # (n_w,) triple segment of each row
    trip_bounds: np.ndarray  # (T + 1,) row offsets of the triple segments
    f_bounds: np.ndarray     # (F + 1,) row offsets of the realized f values
    pwu: np.ndarray          # (n_w, n_u) reverse joint of each row
    pw: np.ndarray           # (n_w,) reference mass of each row
    z_t: np.ndarray          # (T,) decoder normalizer: reference mass of each triple
    z: np.ndarray            # (K, n_u) encoder normalizers Z[k, u] = P(U^n = u, key k)
    pu_enc: np.ndarray       # (n_w, n_u) pu(u) enc(w | key, u), both fallbacks applied
    w0_enc: np.ndarray       # (K, n_u) mass routed to the w0 encoder fallback


def _sorted_layout(tab: _Tables, b: BinningRealization) -> _SortedLayout:
    key = b.phi_f * b.bins_c + b.phi_c
    order = np.argsort(key * b.bins_m + b.phi_m, kind="stable")
    key_s = key[order]
    key_ids, key_bounds = _runs(key_s)
    n_keys = key_bounds.size - 1
    pwu = tab.pwu[order]
    pw_s = tab.pw[order]
    z = _segment_sums(pwu, key_ids, n_keys)
    pos = z > 0
    pu_enc = pwu * np.divide(tab.pu, z, out=np.zeros_like(z), where=pos)[key_ids]
    w0_enc = np.zeros_like(z)
    if not pos.all():
        # u with no mass in the bin: the reference restricted to the bin,
        # or (if the bin carries no reference mass either) the w0 abort
        bin_mass = _segment_sums(pw_s, key_ids, n_keys)
        has_ref = bin_mass > 0
        refill = np.where(~pos & has_ref[:, None], tab.pu, 0.0)
        ref = pw_s / np.where(has_ref, bin_mass, 1.0)[key_ids]
        pu_enc += ref[:, None] * refill[key_ids]
        w0_enc = np.where(~pos & ~has_ref[:, None], tab.pu, 0.0)
    trip_ids, trip_bounds = _runs(key_s * b.bins_m + b.phi_m[order])
    return _SortedLayout(
        order=order, keys=key_s[key_bounds[:-1]], key_bounds=key_bounds,
        trip_ids=trip_ids, trip_bounds=trip_bounds, f_bounds=_runs(b.phi_f[order])[1],
        pwu=pwu, pw=pw_s, z_t=_segment_sums(pw_s, trip_ids, trip_bounds.size - 1),
        z=z, pu_enc=pu_enc, w0_enc=w0_enc,
    )


def _triple_v_laws(lay: _SortedLayout, pvn_s: np.ndarray) -> np.ndarray:
    """(T, n_v) decoded V law of each realized triple, P(V^n | triple) =
    sum_w P(w) P(v | w) / Z_triple, from the sorted kernel rows ``pvn_s``.
    A zero-mass triple keeps a zero row: the encoder only emits sequences
    with reference mass and so never reaches it."""
    v_t = _segment_sums(lay.pw[:, None] * pvn_s, lay.trip_ids, lay.z_t.size)
    ok = lay.z_t > 0
    v_t[ok] /= lay.z_t[ok, None]
    return v_t


# =============================================================================
# per-realization metrics
# =============================================================================


@dataclass(frozen=True)
class TrialMetrics:
    """Exact per-realization quantities of one drawn binning."""

    l1_uv: float
    l1_uv_given_f: float
    select_f_index: int
    select_f_distance: float
    l1_index_fc: float
    decoder_error: float
    abort_rate: float


def _trial_metrics(tab: _Tables, b: BinningRealization) -> TrialMetrics:
    lay = _sorted_layout(tab, b)
    n_keys_total = b.bins_f * b.bins_c
    q = 1.0 / n_keys_total
    n_unhit = n_keys_total - lay.keys.size

    # --- uniformity surface: realized (U^n, F, C) vs ideal product --------
    l1_index = float(np.abs(lay.z - tab.pu / n_keys_total).sum()) + n_unhit * q

    # --- decoder: V law per triple, error under the reverse joint ----------
    n_trips = lay.z_t.size
    pvn_s = tab.pvn[lay.order]
    ok = lay.z_t > 0
    decoder_error = 1.0 - float(np.sum(_segment_sums(lay.pw * lay.pw, lay.trip_ids, n_trips)[ok] / lay.z_t[ok]))
    v_t = _triple_v_laws(lay, pvn_s)
    enc_t = _segment_sums(lay.pu_enc, lay.trip_ids, n_trips)

    # --- protocol joint on (U^n, V^n), and seed selection per f value -------
    lump = np.outer(tab.pu, tab.pvn[tab.w0])  # an unhit (f, c) pair, weight 1
    f_keys = np.searchsorted(lay.key_bounds, lay.f_bounds)
    f_trips = np.searchsorted(lay.trip_bounds, lay.f_bounds)
    rc_uv = (b.bins_f - (lay.f_bounds.size - 1)) * b.bins_c * q * lump  # unhit f values
    best_f, best_dist, best_cond_rc = -1, math.inf, None
    for i in range(lay.f_bounds.size - 1):
        r0, r1 = lay.f_bounds[i], lay.f_bounds[i + 1]
        k0, k1 = f_keys[i], f_keys[i + 1]
        t0, t1 = f_trips[i], f_trips[i + 1]
        rc_f = q * (enc_t[t0:t1].T @ v_t[t0:t1])
        rc_f += q * np.outer(lay.w0_enc[k0:k1].sum(axis=0), tab.pvn[tab.w0])
        rc_f += (b.bins_c - (k1 - k0)) * q * lump
        rc_uv += rc_f
        rb_mass = float(lay.pw[r0:r1].sum())
        if rb_mass <= 0.0:
            continue
        cond_rb = (lay.pwu[r0:r1].T @ pvn_s[r0:r1]) / rb_mass
        cond_rc = rc_f * b.bins_f
        dist = float(np.abs(cond_rb - cond_rc).sum())
        if dist < best_dist - 1e-15:
            best_f, best_dist, best_cond_rc = int(lay.keys[k0]) // b.bins_c, dist, cond_rc
    l1_uv = float(np.abs(rc_uv - tab.target_uv).sum())
    l1_sel = float(np.abs(best_cond_rc - tab.target_uv).sum())
    abort = n_unhit * q + q * float(lay.w0_enc.sum())  # unhit (f,c): encoder+decoder fallback

    return TrialMetrics(
        l1_uv=l1_uv,
        l1_uv_given_f=l1_sel,
        select_f_index=best_f,
        select_f_distance=best_dist,
        l1_index_fc=l1_index,
        decoder_error=decoder_error,
        abort_rate=abort,
    )


def select_f(d: Decomposition, b: BinningRealization, cfg: SchemeConfig) -> tuple[int, float]:
    """The extra-seed value whose conditional protocol law best matches the
    conditional reverse law, with its L1 distance.

    Only seeds carrying reverse-joint mass are scanned (others have no
    defined conditional); ties go to the smallest index.  The distance is
    at most twice the joint-with-F L1 -- a guarantee that is sharp when
    every F bin is hit and slack (but still true) when most bins are empty.
    """
    tab = _tables(d, cfg.n)
    m = _trial_metrics(tab, b)
    return m.select_f_index, m.select_f_distance


def trial_metrics(d: Decomposition, cfg: SchemeConfig, trial: int) -> TrialMetrics:
    """Exact metrics of one numbered draw -- the same draw the Monte Carlo
    loop uses for that trial index, so traces and aggregates agree."""
    b = draw_binning(cfg, trial=trial)
    return _trial_metrics(_tables(d, cfg.n), b)


def _trials(d: Decomposition, cfg: SchemeConfig, trials: int) -> Iterator[TrialMetrics]:
    """Metrics of draws 0 .. trials-1, with the iid tables built once."""
    tab = _tables(d, cfg.n)
    for t in range(trials):
        yield _trial_metrics(tab, draw_binning(cfg, trial=t))


# =============================================================================
# lazy factored joints
# =============================================================================

_INDEX_AXES = ("f", "c", "w", "m")
_BUILD_AXES = (*_INDEX_AXES, "u", "hw", "v")  # internal table order, transposed last


class _PathJoint:
    """A factored joint held as weighted path rows over the sorted layout.

    ``_paths(axes)`` gives, per row, u-weights, f/c/w/m coordinates, the
    decoder slot it reads (a realized triple with reference mass, or the
    abort slot one past the last triple, which decodes to w0) and its V^n
    law, or None when V^n is emitted from the decoded sequence hw.
    ``marginal(axes)`` materializes exactly the requested axes (any subset
    of u, w, f, c, m, hw, v in any order), capped by the memory budget.
    """

    def __init__(self, d: Decomposition, b: BinningRealization, cfg: SchemeConfig):
        self.d, self.b, self.cfg = d, b, cfg
        self.tab = _tables(d, cfg.n)
        self._layout = lay = _sorted_layout(self.tab, b)
        # a triple without reference mass cannot be renormalized: abort to w0
        self._slot = np.where(lay.z_t[lay.trip_ids] > 0, lay.trip_ids, lay.z_t.size)

    def marginal(self, axes) -> JointPmf:
        axes = _check_axes(axes, self._AXES)
        t, b, lay = self.tab, self.b, self._layout
        sizes = {"u": t.n_u, "w": t.n_w, "f": b.bins_f, "c": b.bins_c,
                 "m": b.bins_m, "hw": t.n_w, "v": t.n_v}
        build = tuple(a for a in _BUILD_AXES if a in axes)
        check_table_size(math.prod(sizes[a] for a in build), "joint marginal")
        weight, coords, slot, v_rows = self._paths(axes)
        if "u" not in axes:
            weight = weight.sum(axis=1, keepdims=True)
        idx = np.zeros(slot.size, dtype=np.int64)
        for a in _INDEX_AXES:
            if a in axes:
                idx = idx * sizes[a] + coords[a]
        n_idx = math.prod(sizes[a] for a in _INDEX_AXES if a in axes)
        n_slots = lay.z_t.size + 1
        if "hw" in axes:  # segments are realized (index, decoder slot) pairs
            keys, seg = np.unique(idx * n_slots + slot, return_inverse=True)
            n_seg = keys.size
        else:  # segments are the output's index cells
            seg, n_seg = idx, n_idx
        # body[s]: the (u, v) block of segment s, before hw is attached
        if v_rows is None:
            body = _segment_sums(weight, seg, n_seg)[:, :, None]
        elif "u" not in axes:
            body = _segment_sums(weight * v_rows, seg, n_seg)[:, None, :]
        else:  # one matmul per realized segment
            rows = np.argsort(seg, kind="stable")
            bounds = _runs(seg[rows])[1]
            body = np.zeros((n_seg, weight.shape[1], v_rows.shape[1]))
            for i, j in zip(bounds[:-1], bounds[1:]):
                body[seg[rows[i]]] = weight[rows[i:j]].T @ v_rows[rows[i:j]]
        out = body
        if "hw" in axes:  # spread each segment over the posterior of its slot
            n = np.append(np.diff(lay.trip_bounds), 1)[keys % n_slots]
            start = np.append(lay.trip_bounds[:-1], t.n_w)[keys % n_slots]
            owner = np.repeat(np.arange(n_seg), n)
            src = np.repeat(start - np.cumsum(n) + n, n) + np.arange(owner.size)
            z = lay.z_t[lay.trip_ids]
            post = np.append(np.divide(lay.pw, z, out=np.zeros_like(z), where=z > 0), 1.0)
            hw = np.append(lay.order, t.w0)[src]
            body = body[owner] * post[src, None, None]
            if "v" in axes and v_rows is None:
                body = body * t.pvn[hw][:, None, :]
            out = np.zeros((n_idx, weight.shape[1], t.n_w, body.shape[2]))
            # an abort slot and the triple of w0 can both reach (index, w0)
            np.add.at(out, (keys[owner] // n_slots, slice(None), hw), body)
        table = out.reshape(tuple(sizes[a] for a in build))
        return JointPmf(np.transpose(table, tuple(build.index(a) for a in axes)), axes=axes)


class RbJoint(_PathJoint):
    """Factored reverse joint: (U^n, W^n) iid, bins read off W^n, the
    decoder posterior on the triple, V^n from the true W^n.  One path row
    per sequence w, weighted by P(U^n, W^n = w)."""

    _AXES = ("u", "w", "f", "c", "m", "hw", "v")

    def _paths(self, axes):
        b, w = self.b, self._layout.order
        coords = {"f": b.phi_f[w], "c": b.phi_c[w], "w": w, "m": b.phi_m[w]}
        return self._layout.pwu, coords, self._slot, self.tab.pvn[w] if "v" in axes else None


class RcJoint(_PathJoint):
    """Factored protocol joint: uniform (F, C), encoder synthesis of W^n,
    the message bin, the decoder posterior, V^n from the reconstruction.

    Path rows, with q = 1/(bins_f bins_c): every sorted encoder row
    (weight q pu enc), one w0 row per hit (f, c) key (its encoder abort
    mass), and the unhit keys lumped per requested (f, c) cell, which emit
    w0 and abort."""

    _AXES = ("u", "f", "c", "w", "m", "hw", "v")

    def _paths(self, axes):
        t, b, lay = self.tab, self.b, self._layout
        key_f, key_c = np.divmod(lay.keys, b.bins_c)
        # (f, c) cell of each hit key; a modulus of 1 drops an axis not asked for
        n_f, n_c = (b.bins_f if "f" in axes else 1), (b.bins_c if "c" in axes else 1)
        hit = np.bincount(key_f % n_f * n_c + key_c % n_c, minlength=n_f * n_c)
        unhit = b.bins_f * b.bins_c // (n_f * n_c) - hit
        cells = np.flatnonzero(unhit)
        w, n_w0 = lay.order, lay.keys.size + cells.size
        weight = np.concatenate([lay.pu_enc, lay.w0_enc, unhit[cells, None] * t.pu])
        weight *= 1.0 / (b.bins_f * b.bins_c)  # in place: the rows can be large
        coords = {"f": np.concatenate([b.phi_f[w], key_f, cells // n_c]),
                  "c": np.concatenate([b.phi_c[w], key_c, cells % n_c]),
                  "w": np.append(w, np.full(n_w0, t.w0)),
                  "m": np.append(b.phi_m[w], np.full(n_w0, b.phi_m[t.w0]))}
        slot = np.append(self._slot, np.full(n_w0, lay.z_t.size))
        v_rows = None
        if "v" in axes and "hw" not in axes:  # the decoded V law of each slot
            v_rows = np.vstack([_triple_v_laws(lay, t.pvn[w]), t.pvn[t.w0]])[slot]
        return weight, coords, slot, v_rows


def _check_axes(axes, allowed) -> tuple[str, ...]:
    if isinstance(axes, str):
        axes = (axes,)
    axes = tuple(axes)
    if not axes or len(set(axes)) != len(axes):
        raise ShapeError(f"marginal axes must be a non-empty set, got {axes}")
    for a in axes:
        if a not in allowed:
            raise ShapeError(f"unknown axis {a!r}; valid axes are {allowed}")
    return axes


def rb_joint(d: Decomposition, b: BinningRealization, cfg: SchemeConfig) -> RbJoint:
    """Factored reverse joint; call .marginal(axes) for exact tables."""
    return RbJoint(d, b, cfg)


def rc_joint(d: Decomposition, b: BinningRealization, cfg: SchemeConfig) -> RcJoint:
    """Factored protocol joint; call .marginal(axes) for exact tables."""
    return RcJoint(d, b, cfg)


# =============================================================================
# exact error-term evaluation
# =============================================================================


def epsilon_terms(
    d: Decomposition, cfg: SchemeConfig, g: GammaTriple
) -> tuple[float, float, float, float]:
    """The three exact tail terms and their total, at the *effective*
    (post-rounding) rates.

    eps_app  prices how far the (F, C) indices are from uniform-and-
             independent-of-U^n under the reverse joint;
    eps_dec  prices the triple-bin decoder's error;
    eps_app2 prices how far F is from independent of (U^n, V^n);
    eps_tot = 2 (eps_app2 + eps_app + 5 eps_dec).

    Each tail probability is an exact n-fold convolution of the per-symbol
    entropy-density law -- identical to summing the set indicator over the
    iid chain, just grouped by density value.
    """
    bf, bc, bm = cfg.bin_counts()
    n = cfg.n
    joint = d.joint()
    puwv = joint.probs  # (u, w, v)
    puv = puwv.sum(axis=1)
    p_w = _w_marginal(d).probs
    # per-symbol h(w|u), h(w), h(w|u,v) with their weights; cells off the
    # weights' support hold inf or NaN and are dropped with them
    with np.errstate(divide="ignore", invalid="ignore"):
        densities = (
            (-np.log2(d.w_given_u.rows), marginalize(joint, ("u", "w")).probs),
            (-np.log2(p_w), p_w),
            (-np.log2(puwv / puv[:, None, :]), puwv),
        )
    sums = []
    for values, weights in densities:
        w = weights / weights.sum()
        keep = w > 0
        sums.append(convolve_n(_atom_law(values[keep], w[keep]), n))
    sum1, sum2, sum3 = sums
    t1 = math.log2(bf) + math.log2(bc) + g.g1
    t2 = math.log2(bf) + math.log2(bc) + math.log2(bm) - g.g2
    t3 = math.log2(bf) + g.g3
    eps_app = (1.0 - sum1.tail_gt(t1)) + 2.0 ** (-(g.g1 + 1.0) / 2.0)
    eps_dec = sum2.tail_ge(t2) + 2.0 ** (-g.g2)
    eps_app2 = (1.0 - sum3.tail_gt(t3)) + 2.0 ** (-(g.g3 + 1.0) / 2.0)
    eps_tot = 2.0 * (eps_app2 + eps_app + 5.0 * eps_dec)
    return eps_app, eps_dec, eps_app2, eps_tot


# =============================================================================
# Monte Carlo over binning draws
# =============================================================================


@dataclass(frozen=True)
class SimReport:
    """Aggregated exact metrics over independent binning realizations.

    l1_uv            mean L1 of the protocol (U^n,V^n) law vs the iid target
    l1_uv_given_f    mean L1 of the selected-seed conditional vs the target
    l1_uv_given_f_min   best single realization (the per-code reading)
    l1_index_fc      mean L1 of the (U^n,F,C) surface vs the ideal product
    select_f_distance   mean conditional reverse-vs-protocol L1 at the
                        selected seed
    decoder_error    mean triple-bin decoder error under the reverse joint
    abort_rate       mean protocol mass through a w0 fallback
    ci95             95% half-width for l1_uv_given_f; ci95_by_metric has
                     the rest
    """

    l1_uv: float
    l1_uv_given_f: float
    eps_app: float
    eps_dec: float
    eps_app2: float
    eps_tot: float
    decoder_error: float
    abort_rate: float
    trials: int
    seed: int
    ci95: float
    l1_uv_given_f_min: float
    l1_index_fc: float
    select_f_distance: float
    effective_rates: tuple[float, float, float]
    ci95_by_metric: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("l1_uv", "l1_uv_given_f", "l1_uv_given_f_min", "l1_index_fc", "select_f_distance"):
            val = getattr(self, name)
            if not -1e-9 <= val <= 2.0 + 1e-9:
                raise DomainError(f"SimReport.{name} = {val!r} outside [0, 2]")
        for name in ("decoder_error", "abort_rate"):
            val = getattr(self, name)
            if not -1e-9 <= val <= 1.0 + 1e-9:
                raise DomainError(f"SimReport.{name} = {val!r} outside [0, 1]")
        if self.trials < 1:
            raise DomainError("SimReport needs trials >= 1")


def _mean_ci(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, 1.96 * math.sqrt(var / n)


def monte_carlo(
    d: Decomposition,
    cfg: SchemeConfig,
    trials: int,
    gamma: GammaTriple | None = None,
) -> SimReport:
    """Exact per-draw metrics averaged over ``trials`` binning draws,
    with 95% confidence half-widths; bit-identical for identical seeds.

    ``gamma`` feeds the error-term formulas (default: the log-rule at n).
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if gamma is None:
        gamma = parse_gamma_rule("logn", cfg.n)
    eps_app, eps_dec, eps_app2, eps_tot = epsilon_terms(d, cfg, gamma)
    runs = list(_trials(d, cfg, trials))
    stats = {name: _mean_ci([getattr(m, name) for m in runs]) for name in
             ("l1_uv", "l1_uv_given_f", "l1_index_fc", "select_f_distance",
              "decoder_error", "abort_rate")}
    return SimReport(
        eps_app=eps_app,
        eps_dec=eps_dec,
        eps_app2=eps_app2,
        eps_tot=eps_tot,
        trials=trials,
        seed=cfg.seed,
        ci95=stats["l1_uv_given_f"][1],
        l1_uv_given_f_min=min(m.l1_uv_given_f for m in runs),
        effective_rates=cfg.effective_rates(),
        ci95_by_metric={name: ci for name, (_, ci) in stats.items()},
        **{name: mean for name, (mean, _) in stats.items()},
    )


# =============================================================================
# entropy diagnostics
# =============================================================================


@dataclass(frozen=True)
class EntropyReport:
    """Message-entropy bound check under the protocol joint."""

    h_m: float
    n_times_mi: float
    slack: float
    ok: bool


def entropy_diagnostics(ucm: JointPmf, n: int, u_size: int) -> EntropyReport:
    """Check H(M) >= sum_t I(U_t; C, M) on a (U^n, C, M) protocol marginal.

    The right side equals n * I(U_T; (C, M, T)) under uniform time sharing
    (the per-letter identification).  The inequality is rigorous here
    because the protocol draws C independent of the iid U^n.  Violations
    beyond 1e-9 raise ``DomainError``.
    """
    if ucm.probs.ndim != 3:
        raise ShapeError(f"expected a (u, c, m) marginal, got rank {ucm.probs.ndim}")
    if u_size ** n != ucm.probs.shape[0]:
        raise ShapeError(
            f"u-axis size {ucm.probs.shape[0]} is not {u_size}^{n}"
        )
    p_m = ucm.probs.sum(axis=(0, 1))
    h_m = float(-np.sum(p_m[p_m > 0] * np.log2(p_m[p_m > 0])))
    total_mi = 0.0
    _, n_c, n_m = ucm.probs.shape
    from .measures import mutual_information

    # axis t of the reshaped table is the t-th symbol of U^n
    letters = ucm.probs.reshape((u_size,) * n + (n_c * n_m,))
    for t in range(n):
        pair = letters.sum(axis=tuple(s for s in range(n) if s != t))
        total_mi += mutual_information(JointPmf(pair))
    slack = h_m - total_mi
    if slack < -1e-9:
        raise DomainError(f"entropy bound violated: H(M) = {h_m} < {total_mi}")
    return EntropyReport(h_m=h_m, n_times_mi=total_mi, slack=slack, ok=True)


# =============================================================================
# one-shot binning lemmas
# =============================================================================


@dataclass(frozen=True)
class OneShotReport:
    """Monte Carlo means (with 95% half-widths) for the one-shot lemmas."""

    mean_l1: float
    ci_l1: float
    mean_error: float
    ci_error: float
    trials: int
    seed: int


def _cond_entropy_density(joint_ab: JointPmf, ref: ConditionalPmf | None) -> np.ndarray:
    """-log2 T(a|b) table aligned to joint axes (a, b); +inf off support."""
    if joint_ab.probs.ndim != 2:
        raise ShapeError("one-shot lemmas need a two-axis (a, b) joint")
    if ref is None:
        pb = joint_ab.probs.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = joint_ab.probs / pb[None, :]
    else:
        if ref.rows.shape != (joint_ab.shape[1], joint_ab.shape[0]):
            raise ShapeError(
                f"reference kernel must map b->a with shape {(joint_ab.shape[1], joint_ab.shape[0])}"
            )
        cond = ref.rows.T
    with np.errstate(divide="ignore"):
        return -np.log2(cond)


def osrb_uniformity_bound(joint_ab: JointPmf, n_bins: int, gamma: float) -> float:
    """Exact bound on E || P^RB(b, k) - (uniform k) x P(b) ||_1 for a uniform
    random binning of A into ``n_bins`` bins: the mass where the conditional
    entropy density fails to clear log2(bins) by gamma, plus 2^-(gamma+1)/2."""
    if n_bins < 1:
        raise DomainError(f"n_bins must be >= 1, got {n_bins}")
    if gamma <= 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    h = _cond_entropy_density(joint_ab, None)
    good = h - math.log2(n_bins) > gamma
    fail_mass = float(joint_ab.probs[~good].sum())
    return fail_mass + 2.0 ** (-(gamma + 1.0) / 2.0)


def slc_error_bound(
    joint_ab: JointPmf, n_bins: int, gamma: float, ref: ConditionalPmf | None = None
) -> float:
    """Exact bound on the expected stochastic-likelihood-decoder error for a
    uniform binning of A into ``n_bins`` bins with side information B: the
    mass where log2(bins) fails to clear the reference conditional entropy
    density by gamma, plus 2^-gamma."""
    if n_bins < 1:
        raise DomainError(f"n_bins must be >= 1, got {n_bins}")
    if gamma <= 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    h = _cond_entropy_density(joint_ab, ref)
    good = math.log2(n_bins) - h > gamma
    fail_mass = float(joint_ab.probs[~good].sum())
    return fail_mass + 2.0 ** (-gamma)


def osrb_monte_carlo(
    joint_ab: JointPmf,
    n_bins: int,
    trials: int,
    seed: int,
    ref: ConditionalPmf | None = None,
) -> OneShotReport:
    """Empirical means of the two one-shot lemma surfaces over ``trials``
    uniform binning draws: the index-uniformity L1 and the stochastic-
    likelihood decoder error.  Exact per draw; deterministic given seed."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if n_bins < 1:
        raise DomainError(f"n_bins must be >= 1, got {n_bins}")
    p = joint_ab.probs
    if p.ndim != 2:
        raise ShapeError("one-shot lemmas need a two-axis (a, b) joint")
    n_a, n_b = p.shape
    check_table_size(trials * n_a * max(n_bins, n_b), "one-shot draws")
    if ref is None:
        pb = p.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(pb[None, :] > 0, p / np.where(pb[None, :] > 0, pb, 1.0), 0.0)
    else:
        if ref.rows.shape != (n_b, n_a):
            raise ShapeError(f"reference kernel must map b->a with shape {(n_b, n_a)}")
        cond = ref.rows.T
    rng = np.random.Generator(np.random.Philox(key=seed))
    bins = rng.integers(0, n_bins, size=(trials, n_a))
    onehot = np.zeros((trials, n_a, n_bins))
    np.put_along_axis(onehot, bins[:, :, None], 1.0, axis=2)
    # uniformity surface: realized P(b, k) against P(b)/n_bins
    pbk = np.einsum("ab,tak->tbk", p, onehot)
    ideal = (p.sum(axis=0) / n_bins)[None, :, None]
    l1 = np.abs(pbk - ideal).sum(axis=(1, 2))
    # decoder: normalizers Z(b, k) = sum_{a in bin k} T(a|b)
    z = np.einsum("ab,tak->tbk", cond, onehot)
    z_at = np.take_along_axis(
        z, bins[:, None, :], axis=2
    )  # (trials, n_b, n_a): Z(b, bin(a))
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(z_at > 0, cond.T[None, :, :] / np.where(z_at > 0, z_at, 1.0), 0.0)
    success = np.einsum("ab,tba->t", p, frac)
    err = 1.0 - success
    mean_l1, ci_l1 = _mean_ci(list(l1))
    mean_err, ci_err = _mean_ci(list(err))
    return OneShotReport(
        mean_l1=mean_l1, ci_l1=ci_l1, mean_error=mean_err, ci_error=ci_err,
        trials=trials, seed=seed,
    )
