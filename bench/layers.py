"""Which program functions the traced run wraps, and the per-layer metrics
computed from their spans.

``measures`` is not wrapped: ``be_gap`` calls ``gaussian_q`` once per
atom, so its time stays in its callers' self time.
"""

from __future__ import annotations

import statistics

import numpy as np

import coordsim.binning as binning
import coordsim.cli as cli
import coordsim.cltverify as cltverify
import coordsim.nptest as nptest
import coordsim.optimize as optimize
import coordsim.probability as probability
import coordsim.region as region
import coordsim.serialize as serialize

from spans import Tracer, self_times
from workloads import ALL_JOBS

# span name -> metric name for the layers reported as summed self time
SELF_TIME_METRICS = {
    "binning.draw_binning": "binning.draw_binning_s",
    "binning.epsilon_terms": "binning.epsilon_terms_s",
    "binning.rc_marginal": "binning.rc_marginal_s",
    "binning.rb_marginal": "binning.rb_marginal_s",
    "cltverify.convolve_n": "cltverify.convolve_n_s",
    "cltverify.be_gap": "cltverify.be_gap_s",
    "cltverify.density_law": "cltverify.density_law_s",
    "nptest.np_beta": "nptest.np_beta_s",
    "nptest.beta_sandwich": "nptest.beta_sandwich_s",
    "nptest.converse_witness": "nptest.converse_witness_s",
    "optimize.search": "optimize.search_s",
    "region.bounds": "region.bounds_s",
    "probability.iid_extension": "probability.iid_extension_s",
    "cli.resolve": "cli.resolve_s",
    "serialize.write": "serialize.write_s",
}
# per-trial self time of the simulator's trial loop, by blocklength
TRIAL_METRICS = {8: "binning.trial_s_n8", 6: "binning.trial_s_n6"}
# span counter -> metric name; each must repeat exactly between passes
COUNT_METRICS = {
    "fc_keys_hit": "binning.fc_keys_hit",
    "atoms": "cltverify.atoms",
    "outcomes": "nptest.outcomes",
    "cells": "probability.cells",
    "restarts": "optimize.restarts",
}
JOB_METRICS = {f"job.{name}": f"job.{name}_s" for name in ALL_JOBS}
OVERHEAD_METRIC = "trace.overhead_s"

PER_LAYER = (
    *SELF_TIME_METRICS.values(), *TRIAL_METRICS.values(), *COUNT_METRICS.values(),
    *JOB_METRICS.values(), OVERHEAD_METRIC,
)


def _fc_keys_hit(b) -> dict:
    return {"fc_keys_hit": int(np.unique(b.phi_f * b.bins_c + b.phi_c).size)}


def _scheme_n(d, cfg, trials=1, *rest, **kw) -> dict:
    return {"n": cfg.n, "trials": trials}


def _outcomes(p, q, *rest, **kw) -> dict:
    return {"outcomes": len(p)}


def _cells(obj) -> dict:
    table = obj.rows if isinstance(obj, probability.ConditionalPmf) else obj.probs
    return {"cells": int(table.size)}


def install_layers(tracer: Tracer) -> None:
    """Wrap every traced layer; ``tracer.uninstall()`` undoes it."""
    t = tracer.install
    t(binning.monte_carlo, "binning.monte_carlo", attrs=_scheme_n)
    t(binning.trial_metrics, "binning.trial_metrics",
      attrs=lambda d, cfg, trial: {"n": cfg.n, "trials": 1})
    t(binning.draw_binning, "binning.draw_binning", counts=_fc_keys_hit)
    t(binning.epsilon_terms, "binning.epsilon_terms")
    t(binning.RcJoint.marginal, "binning.rc_marginal", owner=binning.RcJoint)
    t(binning.RbJoint.marginal, "binning.rb_marginal", owner=binning.RbJoint)
    t(cltverify.convolve_n, "cltverify.convolve_n", counts=lambda law: {"atoms": law.n_atoms})
    t(cltverify.be_gap, "cltverify.be_gap")
    t(cltverify.density_law, "cltverify.density_law")
    t(nptest.np_beta, "nptest.np_beta", attrs=_outcomes)
    t(nptest.beta_sandwich, "nptest.beta_sandwich", attrs=_outcomes)
    t(nptest.converse_witness, "nptest.converse_witness")
    t(optimize.optimize_decomposition, "optimize.search",
      attrs=lambda *a, restarts=4, **kw: {"restarts": restarts})
    t(region.inner_bound, "region.bounds")
    t(region.outer_bound, "region.bounds")
    t(probability.iid_extension, "probability.iid_extension", counts=_cells)
    t(cli.resolve_config, "cli.resolve")
    t(serialize.write_table, "serialize.write")


def pass_metrics(spans: list[dict]) -> dict:
    """Per-layer figures of one traced pass, counters included."""
    own = self_times(spans)
    out = {name: 0.0 for name in (*SELF_TIME_METRICS.values(), *TRIAL_METRICS.values(),
                                  *JOB_METRICS.values())}
    out.update({name: 0 for name in COUNT_METRICS.values()})
    trial_time = {n: 0.0 for n in TRIAL_METRICS}
    trial_count = {n: 0 for n in TRIAL_METRICS}
    for s in spans:
        name, attrs = s["name"], s["attrs"]
        if name in SELF_TIME_METRICS:
            out[SELF_TIME_METRICS[name]] += own[s["id"]]
        elif name in JOB_METRICS:
            out[JOB_METRICS[name]] += s["end"] - s["start"]
        elif name in ("binning.monte_carlo", "binning.trial_metrics") and attrs["n"] in TRIAL_METRICS:
            trial_time[attrs["n"]] += own[s["id"]]
            trial_count[attrs["n"]] += attrs["trials"]
        for key, metric in COUNT_METRICS.items():
            if key in attrs:
                out[metric] += attrs[key]
    for n, metric in TRIAL_METRICS.items():
        if trial_count[n]:
            out[metric] = trial_time[n] / trial_count[n]
    return out


def layer_metrics(passes: list[dict], traced_wall: list, untraced_wall: list) -> tuple[dict, list]:
    """Median over traced passes of each timing; counts must repeat exactly.
    Returns (metrics, problems)."""
    problems = []
    metrics = {}
    for name in PER_LAYER:
        if name == OVERHEAD_METRIC:
            metrics[name] = statistics.median(traced_wall) - statistics.median(untraced_wall)
            continue
        values = [p[name] for p in passes]
        if name in COUNT_METRICS.values():
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    return metrics, problems
