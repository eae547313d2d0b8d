"""The public names of the ``coordsim`` package are pinned: helpers may
move or disappear behind them, the exported surface may not."""

import types

import coordsim

PUBLIC = [
    "AtomLaw", "BEGapResult", "BEStats", "BinaryTest", "BinningRealization", "CandidateCheck",
    "ConditionalPmf", "CoordsimError", "Decomposition", "DensityTable", "DomainError",
    "EntropyReport", "GammaTriple", "JointPmf", "NPResult", "OneShotReport", "Pmf",
    "RegionPoint", "ResourceLimitError", "SandwichReport", "SchemeConfig", "SearchError",
    "ShapeError", "SimReport", "TrialMetrics", "WitnessReport", "asymptotic_region", "be_gap",
    "be_stats", "beta_sandwich", "closed_result_check", "compose_chain", "conditional",
    "conditional_dispersion", "converse_witness", "convolve_n", "density_law",
    "dispersion_of_channel", "draw_binning", "entropy_density", "entropy_diagnostics",
    "epsilon_terms", "gamma_tradeoff", "gaussian_q", "gaussian_q_inv", "iid_extension",
    "info_density", "inner_bound", "kl_divergence", "l1_distance", "law_stats", "marginalize",
    "memory_cap", "monte_carlo", "mutual_information", "np_beta", "np_test",
    "optimize_decomposition", "osrb_monte_carlo", "osrb_uniformity_bound", "outer_bound",
    "parse_gamma_rule", "rb_joint", "rc_joint", "regroup_pair", "rr0_converse_witness",
    "select_f", "sequence_digits", "sequence_index", "slc_error_bound", "slc_posterior",
    "stats_wu", "stats_wuv", "trial_metrics",
]


def test_public_names_are_pinned():
    exported = sorted(
        name for name, value in vars(coordsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == sorted(PUBLIC)
