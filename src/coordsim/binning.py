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

Everything here is exact per realization: joints are held factored (bin
maps plus the iid tables, themselves held as (n-1)-fold factors) and only
requested marginals and rows are materialized, so the memory cost is the
size of what you ask for, never the seven-axis product or a full n-fold
table.

Layout
------
Per realization, W^n is sorted once (stably) by its (f, c, m) triple key
(f * bins_c + c) * bins_m + m.  Every realized (f, c) key and every
realized triple is then a contiguous range of rows, and each lies inside
the block of rows of one realized seed value f.  A trial works one f block
at a time: it builds that block's P(u, w) and P(v | w) rows and reduces
them by segment sums to the encoder normalizers Z[key, u] (which are also
the realized (U^n, F, C) surface), the encoder mass pu * enc with both
fallbacks, and the decoder's reference mass, so it never holds a table of
all n_w rows.  The decoder posterior depends on w only through its triple,
so its V law is computed once per triple, P(V^n | triple) = sum_w P(w)
P(v | w) / Z_triple, and the protocol's (U^n, V^n) law under seed f is one
matmul of the per-triple encoder mass against those laws.  Both joints are
weighted path tables over the same layout, built over all rows at once:
``RbJoint`` has one row per sequence, ``RcJoint`` one per encoder row plus
the w0 rows of the encoder aborts and of the unhit (f, c) keys; a marginal
sums the rows per requested index and spreads the result over the decoder
posterior of each row's triple.

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
parallel, and no two (seed, trial) pairs share a stream.  A trial's
products run on one BLAS thread, so its bits do not depend on the core
count; a large enough run of trials is spread over forked worker
processes, one per usable core (``_trials``).
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import sys
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .cltverify import _atom_law, convolve_n
from .errors import CoordsimError, DomainError, ResourceLimitError, ShapeError
from .measures import group_tail, mutual_information, tie_groups
from .probability import (
    _GATHER_CELLS,
    ConditionalPmf,
    JointPmf,
    Pmf,
    _clean_probs,
    _freeze,
    _iid_rows,
    _IidRows,
    check_blocklength,
    check_positive,
    check_seed,
    check_table_size,
    iid_extension,
    marginalize,
    regroup_pair,
)
from .region import Decomposition, GammaTriple, _eps_total, _osrb_slack, _slc_slack, parse_gamma_rule

# =============================================================================
# configuration
# =============================================================================


def _bin_count(rate: float, n: int, what: str) -> int:
    """floor(2^(n*rate)) with snapping against float dust, at least 1."""
    check_positive(rate, what, zero=True)
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
        object.__setattr__(self, "seed", check_seed(self.seed))
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

    Carries the iid W^n mass ``w_mass``, read only by ``slc_posterior``:
    ``trial_metrics``, ``rb_joint``, ``rc_joint`` and ``select_f`` decode
    with ``_tables``' P(W^n), the (W, U) joint's row sums, which differs in
    its last bits (by <= 1.9e-19 at n = 8).  Maps are checked total at construction.
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
    matter how trials are scheduled -- in one process or spread over the
    worker processes of ``_trials`` -- and distinct seeds never share a
    draw.
    """
    trial = check_seed(trial, "trial index")
    w_mass = iid_extension(marginalize(cfg.decomposition.joint(), "w"), cfg.n).probs
    bf, bc, bm = cfg.bin_counts()
    rng = np.random.Generator(np.random.Philox(key=cfg.seed | (trial << 64)))
    phi_f = rng.integers(0, bf, size=w_mass.size, dtype=np.int64)
    phi_c = rng.integers(0, bc, size=w_mass.size, dtype=np.int64)
    phi_m = rng.integers(0, bm, size=w_mass.size, dtype=np.int64)
    return BinningRealization(
        phi_f=phi_f, phi_c=phi_c, phi_m=phi_m,
        bins_f=bf, bins_c=bc, bins_m=bm, w_mass=w_mass,
    )


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
    """iid blocks shared by every per-realization computation.  The
    (n_w, n_u) joint P(w, u) and the (n_w, n_v) kernel P(v | w) are held as
    factors, each 1/(|W| |U|) or 1/(|W| |V|) of its table: ``rows(w)``
    builds just the rows a caller asks for, with the bits of the full table
    (``probability._IidRows``).  No full table is ever built: the divisors,
    ``pu`` and ``pw`` are read off streamed row blocks with the full
    tables' bits (``probability._iid_rows``), and the tables are not
    checked again, as products of the chain's checked laws.  The kernel
    and the (U^n, V^n) target are built on first read: a (u, w) marginal
    never reads them."""

    d: Decomposition
    n: int
    n_u: int
    n_w: int
    n_v: int
    pu: np.ndarray        # (n_u,)
    pwu: _IidRows         # rows of the (n_w, n_u) joint
    pw: np.ndarray        # (n_w,)
    w0: int               # fallback sequence: the lowest flat index with reference mass

    @cached_property
    def pvn(self) -> _IidRows:
        """Rows of the (n_w, n_v) kernel."""
        return _iid_rows(self.d.v_given_w, self.n)[0]

    @cached_property
    def pv0(self) -> np.ndarray:
        """(n_v,) kernel row of the fallback sequence w0."""
        return self.pvn.rows(np.array([self.w0]))[0]

    @cached_property
    def target_uv(self) -> np.ndarray:
        """(n_u, n_v) iid target."""
        return iid_extension(marginalize(self.d.joint(), ("u", "v")), self.n).probs


def _tables(d: Decomposition, n: int) -> _Tables:
    u, w, v = d.u_size, d.w_size, d.v_size
    check_table_size(max(u * w, w * v, u * v), "scheme tables", n)
    n_u, n_w, n_v = u ** n, w ** n, v ** n
    pwu, pw, pu = _iid_rows(regroup_pair(marginalize(d.joint(), ("w", "u")), "w", "u"), n)
    return _Tables(d=d, n=n, n_u=n_u, n_w=n_w, n_v=n_v, pu=pu, pwu=pwu, pw=pw,
                   w0=int(np.flatnonzero(pw > 0)[0]))


def _runs(sorted_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run id of each element, row offsets (runs + 1,)) of the runs of
    equal values in a sorted array."""
    change = sorted_vals[1:] != sorted_vals[:-1]
    ids = np.concatenate(([0], np.cumsum(change)))
    bounds = np.concatenate(([0], np.flatnonzero(change) + 1, [sorted_vals.size]))
    return ids, bounds


@np.errstate(over="ignore", invalid="ignore")  # as silent as np.bincount
def _segment_sums(x: np.ndarray, ids: np.ndarray, n_seg: int) -> np.ndarray:
    """Sums of the rows of ``x`` (1-D or 2-D) per segment id, each added in
    row order from 0.0: the bits of one ``np.bincount`` over flat (segment,
    column) cells, without an index as large as ``x``.

    A one-column ``x`` is that bincount, over the ids themselves.  Wider
    rows rest on two facts: ``np.add.reduce`` over the rows of a C-ordered
    table adds them one at a time from 0.0, column by column (a single
    column it would sum pairwise), and adding +0.0 changes no sum that
    starts from 0.0.  Each row's position in its segment comes from a
    stable argsort of the ids (none when they are sorted).  If every
    segment padded with zero rows to the longest fits in
    ``_GATHER_CELLS`` entries, all are reduced at once: on the simulator's
    small blocks (n = 6) this is more than twice as fast as the passes below,
    whose numpy calls dominate there.  Otherwise the segments longer than
    some k are reduced one call each, and the others in blocks of about
    ``_GATHER_CELLS`` entries, longest first: the block's first rows, then
    pass j adds the j-th row of each segment that has one.  k minimizes
    passes plus calls.
    """
    if x.ndim == 1 or x.shape[1] == 1:
        sums = np.bincount(ids, weights=x.reshape(-1), minlength=n_seg)
        return sums.reshape((n_seg, *x.shape[1:]))
    x, n_col = np.ascontiguousarray(x), x.shape[1]
    order = np.argsort(ids, kind="stable") if (ids[1:] < ids[:-1]).any() else None
    ids_s = ids if order is None else ids[order]
    pos = np.arange(ids.size) - np.searchsorted(ids_s, ids_s)  # of each sorted row in its segment
    k = int(pos.max(initial=0)) + 1
    if k * n_seg * n_col <= _GATHER_CELLS:
        if order is not None:
            pos[order] = pos.copy()
        pad = np.zeros((k, n_seg, n_col))
        pad[pos, ids] = x
        return np.add.reduce(pad, axis=0)
    out = np.zeros((n_seg, n_col))
    starts = np.flatnonzero(pos == 0)
    lengths = np.diff(np.append(starts, ids.size))
    by_len = np.argsort(-lengths, kind="stable")
    starts, lengths, seg = starts[by_len], lengths[by_len], ids_s[starts[by_len]]
    k = int(np.argmin(np.arange(k + 1) + np.searchsorted(-lengths, -np.arange(k + 1))))
    n_long = int(np.searchsorted(-lengths, -k))  # segments longer than k
    for s, a, n in zip(seg[:n_long].tolist(), starts[:n_long].tolist(), lengths[:n_long].tolist()):
        out[s] = np.add.reduce(x[a:a + n] if order is None else x[order[a:a + n]], axis=0)
    step = max(1, _GATHER_CELLS // n_col)
    for b0 in range(n_long, seg.size, step):
        a, n = starts[b0:b0 + step], lengths[b0:b0 + step]
        live = np.searchsorted(-n, -np.arange(1, n[0]))  # segments with a j-th row, j = 1, 2, ..
        rows = a if order is None else order[a]
        acc = x[rows]
        acc += 0.0
        for j, m in enumerate(live.tolist(), 1):
            rows = a[:m] + j
            acc[:m] += x[rows if order is None else order[rows]]
        out[seg[b0:b0 + step]] = acc
    return out


@dataclass(frozen=True)
class _SortedLayout:
    """W^n sorted once by its (f, c, m) triple: the row layout that trials
    and joints share.  Row r is sequence ``order[r]``.  Realized key j =
    (f, c) owns rows key_bounds[j]:key_bounds[j+1], realized triple i owns
    rows trip_bounds[i]:trip_bounds[i+1], and realized f values own the
    blocks between consecutive ``f_bounds``, each holding all its keys and
    triples.  The sort is stable, so rows keep increasing flat order inside
    a triple.  Callers gather row tables (a block or all rows at a time)
    and reduce them by segment sums over these runs.
    """

    order: np.ndarray        # (n_w,) flat w index of each row
    keys: np.ndarray         # (K,) realized (f, c) keys f * bins_c + c, increasing
    key_ids: np.ndarray      # (n_w,) key segment of each row
    key_bounds: np.ndarray   # (K + 1,) row offsets of the key segments
    trip_ids: np.ndarray     # (n_w,) triple segment of each row
    trip_bounds: np.ndarray  # (T + 1,) row offsets of the triple segments
    f_bounds: np.ndarray     # (F + 1,) row offsets of the realized f values
    pw: np.ndarray           # (n_w,) reference mass of each row
    z_t: np.ndarray          # (T,) decoder normalizer: reference mass of each triple


def _sorted_layout(tab: _Tables, b: BinningRealization) -> _SortedLayout:
    key = b.phi_f * b.bins_c + b.phi_c
    order = np.argsort(key * b.bins_m + b.phi_m, kind="stable")
    key_s = key[order]
    key_ids, key_bounds = _runs(key_s)
    pw_s = tab.pw[order]
    trip_ids, trip_bounds = _runs(key_s * b.bins_m + b.phi_m[order])
    return _SortedLayout(
        order=order, keys=key_s[key_bounds[:-1]], key_ids=key_ids, key_bounds=key_bounds,
        trip_ids=trip_ids, trip_bounds=trip_bounds, f_bounds=_runs(b.phi_f[order])[1],
        pw=pw_s, z_t=_segment_sums(pw_s, trip_ids, trip_bounds.size - 1),
    )


def _encoder(pu, pwu, pw, key_ids, n_keys):
    """(z, w0_enc) of a key-sorted run of rows with reverse joint ``pwu``
    and reference mass ``pw``: the encoder normalizers Z[key, u] = P(U^n =
    u, key) and the (keys, n_u) mass routed to the w0 encoder fallback.
    ``pwu`` is overwritten with the (rows, n_u) encoder mass pu(u)
    enc(w | key, u), both fallbacks applied, a block of rows at a time, so
    no (rows, n_u) table of per-key factors is built."""
    z = _segment_sums(pwu, key_ids, n_keys)
    pos = z > 0
    scale = np.divide(pu, z, out=np.zeros_like(z), where=pos)
    w0_enc = np.zeros_like(z)
    refill = None
    if not pos.all():
        # u with no mass in the bin: the reference restricted to the bin,
        # or (if the bin carries no reference mass either) the w0 abort
        bin_mass = _segment_sums(pw, key_ids, n_keys)
        has_ref = bin_mass > 0
        refill = np.where(~pos & has_ref[:, None], pu, 0.0)
        ref = pw / np.where(has_ref, bin_mass, 1.0)[key_ids]
        w0_enc = np.where(~pos & ~has_ref[:, None], pu, 0.0)
    step = max(1, _GATHER_CELLS // pwu.shape[1])
    for r0 in range(0, key_ids.size, step):
        block, keys = pwu[r0:r0 + step], key_ids[r0:r0 + step]
        block *= scale[keys]
        if refill is not None:
            block += ref[r0:r0 + step, None] * refill[keys]
    return z, w0_enc


def _triple_v_laws(pw, pvn_rows, trip_ids, z_t) -> np.ndarray:
    """(T, n_v) decoded V law of each triple of a run of rows, P(V^n |
    triple) = sum_w P(w) P(v | w) / Z_triple, from their reference mass
    ``pw`` and kernel rows ``pvn_rows``, which it overwrites.  A zero-mass
    triple keeps a zero row: the encoder only emits sequences with
    reference mass and so never reaches it."""
    v_t = _segment_sums(np.multiply(pw[:, None], pvn_rows, out=pvn_rows), trip_ids, z_t.size)
    ok = z_t > 0
    v_t[ok] /= z_t[ok, None]
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


@cache
def _blas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded,
    found through /proc/self/maps, or None when no loaded library exports
    them (another BLAS, or no /proc)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore its count.  A
    multithreaded dgemm splits its sums by thread count, so this makes a
    trial's bits independent of the core count and of the worker count.
    A count already at 1 is left alone: after a fork, setting it restarts
    OpenBLAS's thread pool, whose new threads spin for about 0.1 s."""
    get, put = _blas_thread_calls() or (lambda: 1, None)
    before = get()
    if before == 1:  # no OpenBLAS found, or already one thread
        yield
        return
    put(1)
    try:
        yield
    finally:
        put(before)


@_one_blas_thread()
def _trial_metrics(tab: _Tables, b: BinningRealization) -> TrialMetrics:
    lay = _sorted_layout(tab, b)
    n_keys_total = b.bins_f * b.bins_c
    q = 1.0 / n_keys_total
    n_unhit = n_keys_total - lay.keys.size
    n_trips = lay.z_t.size
    ok = lay.z_t > 0
    decoder_error = 1.0 - float(np.sum(_segment_sums(lay.pw * lay.pw, lay.trip_ids, n_trips)[ok] / lay.z_t[ok]))

    # --- one realized f value at a time: its rows hold all its keys and
    # triples, so only (U^n, F, C) tables and one block of rows are built
    z, w0_enc = np.empty((2, lay.keys.size, tab.n_u))
    lump = np.outer(tab.pu, tab.pv0)  # an unhit (f, c) pair, weight 1
    f_keys = np.searchsorted(lay.key_bounds, lay.f_bounds)
    f_trips = np.searchsorted(lay.trip_bounds, lay.f_bounds)
    rc_uv = (b.bins_f - (lay.f_bounds.size - 1)) * b.bins_c * q * lump  # unhit f values
    best_f, best_dist, l1_sel = -1, math.inf, None
    for i in range(lay.f_bounds.size - 1):
        r0, r1 = lay.f_bounds[i], lay.f_bounds[i + 1]
        k0, k1 = f_keys[i], f_keys[i + 1]
        t0, t1 = f_trips[i], f_trips[i + 1]
        rows, pw, trip_ids = lay.order[r0:r1], lay.pw[r0:r1], lay.trip_ids[r0:r1] - t0
        pwu, pvn = tab.pwu.rows(rows), tab.pvn.rows(rows)
        cond_rb = pwu.T @ pvn
        # the encoder mass overwrites pwu and the decoded V laws pvn; each
        # row table dies once read, before the next block
        z[k0:k1], w0_enc[k0:k1] = _encoder(tab.pu, pwu, pw, lay.key_ids[r0:r1] - k0, k1 - k0)
        enc_t = _segment_sums(pwu, trip_ids, t1 - t0)
        v_t = _triple_v_laws(pw, pvn, trip_ids, lay.z_t[t0:t1])
        del pwu, pvn
        rc_f = q * (enc_t.T @ v_t)
        # each skipped term adds exactly +0.0 to the non-negative rc_f
        w0 = w0_enc[k0:k1]
        if w0.any():
            rc_f += q * np.outer(w0.sum(axis=0), tab.pv0)
        if k1 - k0 < b.bins_c:
            rc_f += (b.bins_c - (k1 - k0)) * q * lump
        rc_uv += rc_f
        rb_mass = float(pw.sum())
        if rb_mass <= 0.0:
            continue
        cond_rb /= rb_mass
        rc_f *= b.bins_f  # the protocol's law conditioned on this f
        dist = float(np.abs(np.subtract(cond_rb, rc_f, out=cond_rb), out=cond_rb).sum())
        if dist < best_dist - 1e-15:
            best_f, best_dist = int(lay.keys[k0]) // b.bins_c, dist
            l1_sel = float(np.abs(rc_f - tab.target_uv).sum())

    return TrialMetrics(
        l1_uv=float(np.abs(rc_uv - tab.target_uv).sum()),
        l1_uv_given_f=l1_sel,
        select_f_index=best_f,
        select_f_distance=best_dist,
        # the realized (U^n, F, C) surface against the ideal product
        l1_index_fc=float(np.abs(z - tab.pu / n_keys_total).sum()) + n_unhit * q,
        decoder_error=decoder_error,
        abort_rate=n_unhit * q + q * float(w0_enc.sum()),  # unhit (f,c): encoder+decoder fallback
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


# trials x n_w x (n_u + n_v), the row cells a run of trials builds, below
# which forked workers cost more than they save.  On 2 cores a fork cost
# 5-12 ms: 5 trials at n = 2 (360 cells) took 6-8 ms serially and 13-20 ms
# forked, 2 trials at n = 6 (1.9e5) 8-12 against 16-17 ms, 2 trials at
# n = 7 (1.1e6) 39 against 33 ms, and 5 trials at n = 8 (1.7e7) 355-387
# against 220-260 ms
_FORK_CELLS = 1 << 20


def _worker_cpus(tab: _Tables, trials: int) -> list[int]:
    """The cores to run ``trials`` on, one per worker process: each usable
    core, at most one per trial, when the run reaches _FORK_CELLS, the
    process can fork (no other Python thread is running) and the BLAS can
    be pinned.  Fewer than two means the trials run here, serially."""
    if trials < 2 or trials * tab.n_w * (tab.n_u + tab.n_v) < _FORK_CELLS:
        return []
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return []
    if threading.active_count() > 1 or _blas_thread_calls() is None:
        return []
    return sorted(os.sched_getaffinity(0))[:trials]


def _pin(cpus) -> None:
    """Move this process onto ``cpus``.  Where the kernel does not balance
    load across cores (a cpuset without load balancing), a forked child
    stays on its parent's core and the two run at half speed each; a
    refused move costs only that speed."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _share(tab: _Tables, cfg: SchemeConfig, trials: range) -> tuple[list, tuple | None]:
    """(metrics, failure) of the draws in ``trials``, which stop at the
    first that raises; failure is None or (that trial, its exception)."""
    done = []
    for t in trials:
        try:
            done.append(_trial_metrics(tab, draw_binning(cfg, trial=t)))
        except Exception as e:  # raised again by _forked_trials, in trial order
            return done, (t, e)
    return done, None


def _worker(pipe_fds: tuple[int, int], cpu: int, tab: _Tables, cfg: SchemeConfig,
            trials: range) -> None:
    """A forked child's whole life: move onto ``cpu``, send its pickled
    share through the write end of ``pipe_fds`` and leave by ``os._exit``,
    so it never returns into the parent's code or runs its cleanup.  A
    share that cannot be sent leaves a traceback on stderr and an empty
    pipe."""
    read, write = pipe_fds
    code = 1
    try:
        os.close(read)
        _pin({cpu})
        data = pickle.dumps(_share(tab, cfg, trials))
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(code)


def _forked_trials(tab: _Tables, cfg: SchemeConfig, trials: int,
                   cpus: list[int]) -> list[TrialMetrics]:
    """Metrics of draws 0 .. trials-1 over one process per core of ``cpus``:
    worker k runs on cpus[k] and computes the trials t = k (mod workers);
    worker 0 is this process and the others are forked children that send
    their share through a pipe.  Every child is reaped, and this process's
    cores restored, before this returns or raises.  A failed trial raises
    the exception of the first failing trial, as the serial loop would."""
    tab.pvn, tab.pv0, tab.target_uv  # built once, before the fork, not once per worker
    workers, mask = len(cpus), os.sched_getaffinity(0)
    children = []  # (pid, read end of its pipe)
    done = False
    # children inherit the one-thread count, so no trial sets it again; the
    # count comes back after the cores, so a restarted pool may use them all
    with _one_blas_thread():
        try:
            _pin({cpus[0]})
            for k in range(1, workers):
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(read)
                    os.close(write)
                    raise
                if pid == 0:
                    _worker((read, write), cpus[k], tab, cfg, range(k, trials, workers))
                os.close(write)
                children.append((pid, read))
            shares = [_share(tab, cfg, range(0, trials, workers))]
            for pid, read in children:
                with open(read, "rb", closefd=False) as pipe:
                    data = pipe.read()
                if not data:
                    raise CoordsimError(f"trial worker {pid} ended without sending its trials")
                shares.append(pickle.loads(data))
            done = True
        finally:
            _pin(mask)
            for pid, read in children:
                os.close(read)
                if not done:  # nobody will read its trials
                    import signal  # here, not at import: only an interrupted run needs it

                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [shares[t % workers][0][t // workers] for t in range(trials)]


def _trials(d: Decomposition, cfg: SchemeConfig, trials: int) -> Iterator[TrialMetrics]:
    """Metrics of draws 0 .. trials-1 in trial order, with the iid tables
    built once; the simulator's one ``trials`` check runs at the first draw.

    A run whose trials build at least _FORK_CELLS row cells is spread over
    one process per usable core (``_worker_cpus``, ``_forked_trials``), and
    otherwise runs here, one trial after another.  Each trial pins BLAS to
    one thread (``_trial_metrics``), so the metrics are the same bits
    either way, whatever the core count.
    """
    trials = check_blocklength(trials, "trials")
    tab = _tables(d, cfg.n)
    cpus = _worker_cpus(tab, trials)
    if len(cpus) > 1:
        yield from _forked_trials(tab, cfg, trials, cpus)
        return
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
    of u, w, f, c, m, hw, v in any order) as one C-ordered table, capped by
    the memory budget.
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
        else:  # one matmul per realized segment, on one BLAS thread as in a trial
            rows = np.argsort(seg, kind="stable")
            bounds = _runs(seg[rows])[1]
            body = np.zeros((n_seg, weight.shape[1], v_rows.shape[1]))
            with _one_blas_thread():
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
                body = body * t.pvn.rows(hw)[:, None, :]
            out = np.zeros((n_idx, weight.shape[1], t.n_w, body.shape[2]))
            # an abort slot and the triple of w0 can both reach (index, w0)
            np.add.at(out, (keys[owner] // n_slots, slice(None), hw), body)
        del weight, body  # so the path rows are not alive beside the copy below
        # one C-ordered copy in the requested axis order, frozen so the
        # joint keeps it without another (probability Conventions)
        table = np.transpose(out.reshape(tuple(sizes[a] for a in build)),
                             tuple(build.index(a) for a in axes)).copy()
        return JointPmf(_freeze(table), axes=axes)


class RbJoint(_PathJoint):
    """Factored reverse joint: (U^n, W^n) iid, bins read off W^n, the
    decoder posterior on the triple, V^n from the true W^n.  One path row
    per sequence w, weighted by P(U^n, W^n = w)."""

    _AXES = ("u", "w", "f", "c", "m", "hw", "v")

    def _paths(self, axes):
        b, w = self.b, self._layout.order
        coords = {"f": b.phi_f[w], "c": b.phi_c[w], "w": w, "m": b.phi_m[w]}
        return self.tab.pwu.rows(w), coords, self._slot, self.tab.pvn.rows(w) if "v" in axes else None


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
        # encoder rows, then w0 rows of the hit and the unhit keys, written
        # in place: the rows can be large
        weight = np.empty((w.size + n_w0, t.n_u))
        hit_end = w.size + lay.keys.size
        rows = t.pwu.rows(w, out=weight[:w.size])
        weight[w.size:hit_end] = _encoder(t.pu, rows, lay.pw, lay.key_ids, lay.keys.size)[1]
        np.multiply(unhit[cells, None], t.pu, out=weight[hit_end:])
        weight *= 1.0 / (b.bins_f * b.bins_c)
        coords = {"f": np.concatenate([b.phi_f[w], key_f, cells // n_c]),
                  "c": np.concatenate([b.phi_c[w], key_c, cells % n_c]),
                  "w": np.append(w, np.full(n_w0, t.w0)),
                  "m": np.append(b.phi_m[w], np.full(n_w0, b.phi_m[t.w0]))}
        slot = np.append(self._slot, np.full(n_w0, lay.z_t.size))
        v_rows = None
        if "v" in axes and "hw" not in axes:  # the decoded V law of each slot
            v_rows = np.vstack([_triple_v_laws(lay.pw, t.pvn.rows(w), lay.trip_ids, lay.z_t), t.pv0])[slot]
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

    eps_app  bounds the expected total variation (half the L1) of the
             (U^n, F, C) reverse joint from uniform (F, C) independent of
             U^n;
    eps_dec  prices the triple-bin decoder's error;
    eps_app2 bounds the expected total variation of the (U^n, V^n, F)
             reverse joint from uniform F independent of (U^n, V^n);
    eps_tot = 2 (eps_app2 + eps_app + 5 eps_dec), as ``region._eps_total``.

    Each is a one-shot lemma term (``_osrb_term`` / ``_slc_term``) of an exact
    n-fold convolution of the per-symbol entropy-density law -- identical to
    summing the set indicator over the iid chain, just grouped by value.
    """
    bf, bc, bm = cfg.bin_counts()
    n = cfg.n
    joint = d.joint()
    puwv = joint.probs  # (u, w, v)
    puv = puwv.sum(axis=1)
    p_w = marginalize(joint, "w").probs
    # per-symbol h(w|u), h(w), h(w|u,v) with their weights; cells off the
    # weights' support hold inf or NaN, and ``_atom_law`` drops them
    with np.errstate(divide="ignore", invalid="ignore"):
        densities = (
            (-np.log2(d.w_given_u.rows), marginalize(joint, ("u", "w")).probs),
            (-np.log2(p_w), p_w),
            (-np.log2(puwv / puv[:, None, :]), puwv),
        )
    sum1, sum2, sum3 = (convolve_n(_atom_law(values, weights / weights.sum()), n)
                        for values, weights in densities)
    lf, lc, lm = math.log2(bf), math.log2(bc), math.log2(bm)
    eps_app = _osrb_term(sum1.values, sum1.probs, lf + lc, g.g1)
    eps_dec = _slc_term(sum2.values, sum2.probs, lf + lc + lm, g.g2)
    eps_app2 = _osrb_term(sum3.values, sum3.probs, lf, g.g3)
    return eps_app, eps_dec, eps_app2, _eps_total(eps_app, eps_dec, eps_app2)


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
    eps_tot          the L1 budget (twice a total variation) of the three
                     tail terms, ``region._eps_total``
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
        object.__setattr__(self, "trials", check_blocklength(self.trials, "SimReport.trials"))


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
    with 95% confidence half-widths; bit-identical for identical seeds,
    whatever the core count.

    The draws come from ``_trials``: a large run is spread over one forked
    worker process per usable core, each trial's products run on one BLAS
    thread, and the means are summed in trial order.  ``gamma`` feeds the
    error-term formulas (default: the log-rule at n).
    """
    if gamma is None:
        gamma = parse_gamma_rule("logn", cfg.n)
    runs = list(_trials(d, cfg, trials))
    eps_app, eps_dec, eps_app2, eps_tot = epsilon_terms(d, cfg, gamma)
    stats = {name: _mean_ci([getattr(m, name) for m in runs]) for name in
             ("l1_uv", "l1_uv_given_f", "l1_index_fc", "select_f_distance",
              "decoder_error", "abort_rate")}
    return SimReport(
        eps_app=eps_app,
        eps_dec=eps_dec,
        eps_app2=eps_app2,
        eps_tot=eps_tot,
        trials=len(runs),
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
    n = check_blocklength(n)
    u_size = check_blocklength(u_size, "u alphabet size")
    if ucm.probs.ndim != 3:
        raise ShapeError(f"expected a (u, c, m) marginal, got rank {ucm.probs.ndim}")
    rows, n_c, n_m = ucm.probs.shape
    # n log2(u_size) rules out a mismatch before the power is formed
    if n * math.log2(u_size) > math.log2(rows) + 1 or u_size ** n != rows:
        raise ShapeError(f"u-axis size {rows} is not {u_size}^{n}")
    p_m = ucm.probs.sum(axis=(0, 1))
    h_m = float(-np.sum(p_m[p_m > 0] * np.log2(p_m[p_m > 0])))
    total_mi = 0.0
    if u_size > 1:  # a one-letter U carries no information: its terms are 0
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


def _ref_conditional(joint_ab: JointPmf, ref: ConditionalPmf | None) -> np.ndarray:
    """The reference conditional T(a|b) of the one-shot lemmas, aligned to
    joint axes (a, b): ``ref`` read b -> a, or the joint's own P(a|b) when
    ``ref`` is None, which is 0 in a column without mass."""
    p = joint_ab.probs
    if p.ndim != 2:
        raise ShapeError("one-shot lemmas need a two-axis (a, b) joint")
    if ref is None:
        pb = p.sum(axis=0)
        return p / np.where(pb > 0, pb, 1.0)
    if ref.rows.shape != p.shape[::-1]:
        raise ShapeError(f"reference kernel must map b->a with shape {p.shape[::-1]}")
    return ref.rows.T


def _osrb_term(values: np.ndarray, masses: np.ndarray, log2_bins: float, gamma: float) -> float:
    """OSRB lemma term of an entropy density h (ascending ``values``, their
    ``masses``): the mass where h <= log2(bins) + gamma, plus the slack.  It
    bounds an expected total variation, half the L1: at most 1 + slack, it
    cannot bound an L1 that nears 2 once the bins outnumber the letters."""
    return (1.0 - group_tail(values, masses, log2_bins + gamma, strict=True)) + _osrb_slack(gamma)


def _slc_term(values: np.ndarray, masses: np.ndarray, log2_bins: float, gamma: float) -> float:
    """SLC lemma term: the mass where h >= log2(bins) - gamma, plus the slack."""
    return group_tail(values, masses, log2_bins - gamma, strict=False) + _slc_slack(gamma)


def _one_shot_args(joint_ab: JointPmf, n_bins, gamma, ref: ConditionalPmf | None) -> tuple:
    """The lemma terms' arguments for the one-shot bounds: the tie groups of
    h = -log2 T(a|b) under P(a, b) (+inf where T(a|b) = 0), log2 bins, gamma."""
    n_bins = check_blocklength(n_bins, "n_bins")
    gamma = check_positive(gamma, "gamma")
    with np.errstate(divide="ignore"):
        h = -np.log2(_ref_conditional(joint_ab, ref))
    return (*tie_groups(h.ravel(), joint_ab.probs.ravel())[1:], math.log2(n_bins), gamma)


def osrb_uniformity_bound(joint_ab: JointPmf, n_bins: int, gamma: float) -> float:
    """Exact bound on the expected total variation E ||P^RB(b, k) -
    (uniform k) x P(b)||_TV, half the L1, for a uniform random binning of A
    into ``n_bins`` bins: the mass where the conditional entropy density
    fails to clear log2(bins) by gamma, plus 2^-(gamma+1)/2 (the one-shot
    OSRB lemma of Yassaee, Aref and Gohari, IEEE T-IT 2014)."""
    return _osrb_term(*_one_shot_args(joint_ab, n_bins, gamma, None))


def slc_error_bound(
    joint_ab: JointPmf, n_bins: int, gamma: float, ref: ConditionalPmf | None = None
) -> float:
    """Exact bound on the expected stochastic-likelihood-decoder error for a
    uniform binning of A into ``n_bins`` bins with side information B: the
    mass where log2(bins) fails to clear the reference conditional entropy
    density by gamma, plus 2^-gamma."""
    return _slc_term(*_one_shot_args(joint_ab, n_bins, gamma, ref))


def osrb_monte_carlo(
    joint_ab: JointPmf,
    n_bins: int,
    trials: int,
    seed: int,
    ref: ConditionalPmf | None = None,
) -> OneShotReport:
    """Empirical means of the two one-shot lemma surfaces over ``trials``
    uniform binning draws: the index-uniformity L1 and the stochastic-
    likelihood decoder error.  Exact per draw; deterministic given seed.
    ``mean_l1`` is an L1, twice the total variation that
    ``osrb_uniformity_bound`` bounds."""
    trials = check_blocklength(trials, "trials")
    n_bins = check_blocklength(n_bins, "n_bins")
    seed = check_seed(seed)
    cond = _ref_conditional(joint_ab, ref)
    p = joint_ab.probs
    n_a, n_b = p.shape
    check_table_size(trials * n_a * max(n_bins, n_b), "one-shot draws")
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
