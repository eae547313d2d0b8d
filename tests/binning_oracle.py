"""Per-(f, c)-key reference for ``coordsim.binning._trial_metrics``.

This is the straightforward form of the simulator's per-trial metrics: one
pass per realized key, gathering that key's columns, renormalizing the
encoder, and building the decoder's V law once per member sequence.  The
library computes the same tables as segment sums over W^n sorted by bin
triple; the differential tests compare the two.  It reads its iid
tables from full ``iid_extension`` tables of its own, not from the
library's factored rows.

``segment_sums`` is the reference for those sums: one ``np.bincount`` over
the flat (segment, column) cell of every entry, an index as large as the
rows it sums, which ``binning._segment_sums`` must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from coordsim.binning import BinningRealization, TrialMetrics, _Tables
from coordsim.probability import iid_extension, marginalize, regroup_pair


@dataclass
class KeyPath:
    """Encoder/decoder data for one realized (f, c) bin pair."""

    key: int
    members: np.ndarray       # flat w indices
    enc: np.ndarray           # (n_u, |members|) encoder conditional
    w0_enc_mass: np.ndarray   # (n_u,) mass routed to the w0 encoder fallback
    vrows: np.ndarray         # (|members|, n_v): decoded-V law per member
    path_uv: np.ndarray       # (n_u, n_v) joint of the path, weight 1


def segment_sums(x: np.ndarray, ids: np.ndarray, n_seg: int) -> np.ndarray:
    """Sums of the rows of ``x`` (1-D or 2-D) per segment id: each entry
    added to its (segment, column) cell in row order, from 0.0."""
    n_col = math.prod(x.shape[1:])
    cells = np.add.outer(ids * n_col, np.arange(n_col)).ravel()
    sums = np.bincount(cells, weights=x.ravel(), minlength=n_seg * n_col)
    return sums.reshape((n_seg, *x.shape[1:]))


def full_tables(tab: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """The full (n_w, n_u) joint P(w, u) and (n_w, n_v) kernel P(v | w)."""
    d = tab.d
    pwu = iid_extension(regroup_pair(marginalize(d.joint(), ("w", "u")), "w", "u"), tab.n).probs
    return pwu, iid_extension(d.v_given_w, tab.n).rows


def key_paths(tab: _Tables, b: BinningRealization) -> tuple[list[KeyPath], np.ndarray]:
    """Per-hit-key path tables plus the (f,c)-key array."""
    pwu, pvn = full_tables(tab)
    key = b.phi_f * b.bins_c + b.phi_c
    uniq, inv = np.unique(key, return_inverse=True)
    paths: list[KeyPath] = []
    for j, kv in enumerate(uniq):
        members = np.where(inv == j)[0]
        encw = pwu[members].T
        z_u = encw.sum(axis=1)
        enc = np.zeros_like(encw)
        pos = z_u > 0
        enc[pos] = encw[pos] / z_u[pos, None]
        w0_mass = np.zeros(tab.n_u)
        if (~pos).any():
            bin_mass = tab.pw[members]
            total = float(bin_mass.sum())
            if total > 0:
                enc[~pos] = bin_mass / total
            else:
                w0_mass[~pos] = tab.pu[~pos]
        m_vals = b.phi_m[members]
        vrows = np.empty((members.size, tab.n_v))
        for mv in np.unique(m_vals):
            sel = m_vals == mv
            t_mass = tab.pw[members[sel]]
            z_t = float(t_mass.sum())
            if z_t > 0:
                vrows[sel] = (t_mass / z_t) @ pvn[members[sel]]
            else:
                vrows[sel] = pvn[tab.w0]
        path = (tab.pu[:, None] * enc) @ vrows
        path += w0_mass[:, None] * pvn[tab.w0][None, :]
        paths.append(KeyPath(key=int(kv), members=members, enc=enc,
                             w0_enc_mass=w0_mass, vrows=vrows, path_uv=path))
    return paths, key


def seed_scan(tab: _Tables, b: BinningRealization, paths: list[KeyPath]) -> dict:
    """f -> (conditional reverse-vs-protocol L1, conditional protocol law)
    for every seed value that carries reverse-joint mass, in increasing f."""
    q = 1.0 / (b.bins_f * b.bins_c)
    pwu, pvn = full_tables(tab)
    lump = np.outer(tab.pu, pvn[tab.w0])
    by_f: dict[int, list[KeyPath]] = {}
    for p in paths:
        by_f.setdefault(p.key // b.bins_c, []).append(p)
    out = {}
    for f_val in sorted(by_f):
        group = by_f[f_val]
        members = np.concatenate([p.members for p in group])
        rb_mass = float(tab.pw[members].sum())
        if rb_mass <= 0.0:
            continue
        rb_fuv = pwu[members].T @ pvn[members]
        cond_rb = rb_fuv / rb_mass
        rc_f = sum(q * p.path_uv for p in group)
        rc_f = rc_f + (b.bins_c - len(group)) * q * lump
        cond_rc = rc_f * b.bins_f
        out[f_val] = (float(np.abs(cond_rb - cond_rc).sum()), cond_rc)
    return out


def trial_metrics(tab: _Tables, b: BinningRealization) -> TrialMetrics:
    """The per-key reference of ``binning._trial_metrics``."""
    n_keys_total = b.bins_f * b.bins_c
    paths, key = key_paths(tab, b)
    pwu, pvn = full_tables(tab)

    # --- uniformity surface: realized (U^n, F, C) vs ideal product --------
    l1_index = 0.0
    for p in paths:
        rb_col = pwu[p.members].sum(axis=0)
        l1_index += float(np.abs(rb_col - tab.pu / n_keys_total).sum())
    l1_index += (n_keys_total - len(paths)) / n_keys_total  # unhit ideal mass

    # --- decoder error under the reverse joint ----------------------------
    triple = key * b.bins_m + b.phi_m
    t_uniq, t_inv = np.unique(triple, return_inverse=True)
    z = np.zeros(t_uniq.size)
    np.add.at(z, t_inv, tab.pw)
    z_per_w = z[t_inv]
    ok = z_per_w > 0
    decoder_error = 1.0 - float(np.sum(tab.pw[ok] ** 2 / z_per_w[ok]))

    # --- protocol joint on (U^n, V^n) --------------------------------------
    q = 1.0 / n_keys_total
    rc_uv = np.zeros((tab.n_u, tab.n_v))
    abort = (n_keys_total - len(paths)) * q  # unhit (f,c): encoder+decoder fallback
    for p in paths:
        rc_uv += q * p.path_uv
        abort += q * float(p.w0_enc_mass.sum())
    lump = np.outer(tab.pu, pvn[tab.w0])
    rc_uv += (n_keys_total - len(paths)) * q * lump
    l1_uv = float(np.abs(rc_uv - tab.target_uv).sum())

    # --- seed selection -----------------------------------------------------
    best_f, best_dist, best_cond_rc = -1, math.inf, None
    for f_val, (dist, cond_rc) in seed_scan(tab, b, paths).items():
        if dist < best_dist - 1e-15:
            best_f, best_dist, best_cond_rc = f_val, dist, cond_rc
    if best_f < 0:  # unreachable for normalized laws; belt for degenerate input
        best_f, best_dist, best_cond_rc = 0, 2.0, lump
    l1_sel = float(np.abs(best_cond_rc - tab.target_uv).sum())

    return TrialMetrics(
        l1_uv=l1_uv,
        l1_uv_given_f=l1_sel,
        select_f_index=best_f,
        select_f_distance=best_dist,
        l1_index_fc=l1_index,
        decoder_error=decoder_error,
        abort_rate=abort,
    )
