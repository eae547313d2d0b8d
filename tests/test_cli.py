"""End-to-end tests of the command-line surface.

Every invocation goes through ``cli.main`` in-process; outputs land in
tmp_path files so byte-level determinism and the config round-trip can
be asserted literally.
"""

import json
import math
import time

import numpy as np
import pytest

from coordsim.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, EXIT_RESOURCE, main, render_output
from coordsim.errors import CoordsimError
from coordsim.region import Decomposition, inner_bound, outer_bound, parse_gamma_rule
from coordsim.probability import ConditionalPmf, Pmf
from coordsim.serialize import read_table

CHAIN = {
    "p_u": [0.5, 0.5],
    "w_given_u": [[1.0, 0.0], [0.0, 1.0]],
    "v_given_w": [[1.0, 0.0], [0.0, 1.0]],
}

SKEWED = {
    "p_u": [0.55, 0.45],
    "w_given_u": [[0.5, 0.5, 0.0], [0.1, 0.2, 0.7]],
    "v_given_w": [[0.8, 0.2], [0.4, 0.6], [0.1, 0.9]],
}


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN))
    return str(path)


@pytest.fixture
def sim_file(tmp_path):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({
        "decomposition": SKEWED,
        "n": 2, "rate_r": 1.0, "rate_r0": 0.5, "rate_rtilde": 0.5,
        "seed": 7, "trials": 5,
    }))
    return str(path)


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, (out.read_text() if out.exists() else None)


# =============================================================================
# region
# =============================================================================


def test_region_sweep_shape_and_values(tmp_path, chain_file):
    code, text = run_to_file(tmp_path, "r.csv",
                             ["region", "--input", chain_file, "--n", "8,16,32",
                              "--eps", "0.1"])
    assert code == EXIT_OK
    config, columns, rows = read_table(text)
    assert columns == ["n", "eps", "r_inner", "rr0_inner", "r_outer", "rr0_outer",
                       "eps_tot_bound", "valid"]
    assert len(rows) == 3
    assert [r[0] for r in rows] == ["8", "16", "32"]
    assert config["subcommand"] == "region" and config["ns"] == [8, 16, 32]

    # rows must match the library calls exactly
    d = Decomposition(
        p_u=Pmf(np.array(CHAIN["p_u"])),
        w_given_u=ConditionalPmf(np.array(CHAIN["w_given_u"])),
        v_given_w=ConditionalPmf(np.array(CHAIN["v_given_w"])),
    )
    for row in rows:
        n = int(row[0])
        ib = inner_bound(d, 0.1, 0.1, n, parse_gamma_rule("logn", n))
        ob = outer_bound(d, 0.1, n, 0.75)
        assert float(row[2]) == ib.r_min
        assert float(row[3]) == ib.r_plus_r0_min
        assert float(row[4]) == ob.r_min
        assert float(row[5]) == ob.r_plus_r0_min
        assert float(row[6]) == ib.eps_tot_bound
        assert row[7] == ("true" if ob.valid else "false")


def test_region_missing_file_is_io_error(tmp_path, capsys):
    code = main(["region", "--input", str(tmp_path / "nope.json"), "--n", "8"])
    assert code == EXIT_IO
    assert "nope.json" in capsys.readouterr().err


def test_region_bad_eps_is_invalid(chain_file):
    assert main(["region", "--input", chain_file, "--n", "8", "--eps", "1.5"]) == EXIT_INVALID


def test_unknown_flag_rejected(chain_file):
    assert main(["region", "--input", chain_file, "--n", "8", "--frobnicate"]) == EXIT_INVALID


def test_malformed_json_is_io_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["region", "--input", str(bad), "--n", "8"]) == EXIT_IO


# =============================================================================
# simulate
# =============================================================================


def test_simulate_seed_repeat_is_byte_identical(tmp_path, sim_file):
    code_a, text_a = run_to_file(tmp_path, "a.json",
                                 ["simulate", "--input", sim_file, "--format", "json"])
    code_b, text_b = run_to_file(tmp_path, "b.json",
                                 ["simulate", "--input", sim_file, "--format", "json"])
    assert code_a == code_b == EXIT_OK
    assert text_a == text_b
    code_c, text_c = run_to_file(tmp_path, "c.json",
                                 ["simulate", "--input", sim_file, "--format", "json",
                                  "--seed", "8"])
    assert code_c == EXIT_OK and text_c != text_a


def test_simulate_trace_matches_report(tmp_path, sim_file):
    _, trace = run_to_file(tmp_path, "t.csv",
                           ["simulate", "--input", sim_file, "--format", "csv"])
    _, report = run_to_file(tmp_path, "r.json",
                            ["simulate", "--input", sim_file, "--format", "json"])
    _, t_cols, t_rows = read_table(trace)
    _, r_cols, r_rows = read_table(report)
    assert t_cols[0] == "trial" and len(t_rows) == 5
    mean_l1 = math.fsum(float(r[1]) for r in t_rows) / len(t_rows)
    report_l1 = float(r_rows[0][r_cols.index("l1_uv")])
    assert mean_l1 == pytest.approx(report_l1, abs=1e-12)
    doc = json.loads(report)
    assert set(doc["extra"]["ci95_by_metric"]) == {
        "l1_uv", "l1_uv_given_f", "l1_index_fc", "select_f_distance",
        "decoder_error", "abort_rate",
    }


def test_simulate_zero_trials_invalid(sim_file):
    assert main(["simulate", "--input", sim_file, "--trials", "0"]) == EXIT_INVALID


def test_simulate_resource_cap(tmp_path, sim_file, monkeypatch):
    monkeypatch.setenv("COORDSIM_MEM_CAP", "64")
    code = main(["simulate", "--input", sim_file, "--n", "12",
                 "--output", str(tmp_path / "x.json")])
    assert code == EXIT_RESOURCE


@pytest.mark.parametrize("sub, n, code, line", [
    ("region", 10 ** 400, EXIT_INVALID, "invalid parameters: blocklength must be a whole number"),
    ("simulate", 10 ** 30, EXIT_INVALID, "invalid parameters: n must be a whole number"),
    ("simulate", 10 ** 4, EXIT_RESOURCE, "resource cap exceeded: scheme tables needs 2^"),
    ("simulate", 10 ** 12, EXIT_RESOURCE, "resource cap exceeded: scheme tables needs 2^"),
], ids=["region-401-digits", "simulate-1e30", "simulate-1e4", "simulate-1e12"])
def test_oversized_count_is_a_parameter_or_cap_error(tmp_path, capsys, sub, n, code, line):
    # counts from 2^64 on fail the count check; below it, the cap is decided
    # from n log2|A| before |A|^n is formed, so neither case overflows or hangs
    path = tmp_path / "in.json"
    rates = dict.fromkeys(("rate_r", "rate_r0", "rate_rtilde"), 0.0)
    path.write_text(json.dumps(CHAIN if sub == "region" else {**SIM_DOC, **rates}))
    start = time.perf_counter()
    assert main([sub, "--input", str(path), "--n", str(n), "--gamma", "1,1,1"]) == code
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith(f"coordsim: {line}")


ONE_LETTER = {"decomposition": {"p_u": [1.0], "w_given_u": [[1.0]], "v_given_w": [[1.0]]},
              "rate_r": 0, "rate_r0": 0, "rate_rtilde": 0, "trials": 1}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_one_letter_chain_simulates_any_n_at_once(tmp_path, fmt):
    # every table of a one-letter chain has one cell at every n, so no loop
    # may run n times: n = 10^12 gives the rows of n = 2 in well under 1 s
    path = tmp_path / "in.json"
    path.write_text(json.dumps(ONE_LETTER))
    argv = ["simulate", "--input", str(path), "--gamma-rule", "fixed:1,1,1", "--format", fmt]
    tables = []
    for n in (2, 10 ** 12):
        start = time.perf_counter()
        code, text = run_to_file(tmp_path, f"o{n}.{fmt}", argv + ["--n", str(n)])
        assert code == EXIT_OK and time.perf_counter() - start < 1.0
        config, columns, rows = read_table(text)
        assert config["n"] == n
        tables.append((columns, rows))
    assert tables[0] == tables[1]


def test_simulate_csv_trace_reads_no_gamma_rule(tmp_path, sim_file):
    # the per-trial trace never reads gamma, so the default logn rule, which
    # needs n >= 2, does not stop it at n = 1; the config still echoes it
    code, text = run_to_file(tmp_path, "o.csv", ["simulate", "--input", sim_file, "--n", "1",
                                                 "--trials", "2", "--format", "csv"])
    assert code == EXIT_OK
    config, _, rows = read_table(text)
    assert config["gamma_rule"] == "logn" and len(rows) == 2


def test_simulate_flag_overrides_file(tmp_path, sim_file):
    _, text = run_to_file(tmp_path, "o.json",
                          ["simulate", "--input", sim_file, "--format", "json",
                           "--trials", "2"])
    config, _, _ = read_table(text)
    assert config["trials"] == 2


# =============================================================================
# np / clt / tradeoff / optimize
# =============================================================================


def test_np_equal_laws_row(tmp_path):
    path = tmp_path / "np.json"
    path.write_text(json.dumps({"p": [0.5, 0.5], "q": [0.5, 0.5], "alpha": 0.3,
                                "gamma_grid": [0.5, 1.0, 2.0]}))
    code, text = run_to_file(tmp_path, "np.csv", ["np", "--input", str(path)])
    assert code == EXIT_OK
    _, columns, rows = read_table(text)
    row = dict(zip(columns, rows[0]))
    assert float(row["beta"]) == float(row["alpha"]) == 0.3
    assert row["sandwich_ok"] == "true"


def test_np_alpha_flag_override(tmp_path):
    path = tmp_path / "np.json"
    path.write_text(json.dumps({"p": [0.7, 0.3], "q": [0.5, 0.5]}))
    code, text = run_to_file(tmp_path, "np.csv",
                             ["np", "--input", str(path), "--eps", "0.3"])
    assert code == EXIT_OK
    _, columns, rows = read_table(text)
    row = dict(zip(columns, rows[0]))
    assert float(row["beta"]) == pytest.approx(3.0 / 14.0, abs=1e-15)
    assert row["worst_lower_slack"] == "" and row["sandwich_ok"] == ""
    # alpha must come from somewhere
    assert main(["np", "--input", str(path)]) == EXIT_INVALID


def test_clt_gap_below_bound(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(SKEWED))
    code, text = run_to_file(tmp_path, "clt.csv",
                             ["clt", "--input", str(path), "--n", "1,2,3,4,5,6"])
    assert code == EXIT_OK
    _, columns, rows = read_table(text)
    assert columns == ["n", "gap", "bound"]
    assert len(rows) == 6
    for row in rows:
        assert float(row[1]) <= float(row[2])


def test_tradeoff_default_grid(tmp_path):
    code, text = run_to_file(tmp_path, "t.csv", ["tradeoff", "--n", "1024"])
    assert code == EXIT_OK
    _, columns, rows = read_table(text)
    assert columns == ["x", "rate_penalty", "eps_bound"]
    assert len(rows) == 13
    assert float(rows[0][1]) == 0.0
    assert float(rows[0][2]) == pytest.approx(2.0 * (math.sqrt(2.0) + 5.0), abs=1e-12)


def test_optimize_smoke(tmp_path):
    path = tmp_path / "opt.json"
    path.write_text(json.dumps({
        "target_uv": [[0.25, 0.25], [0.25, 0.25]],
        "w_size": 1,
        "objective": "r_min",
        "restarts": 1,
    }))
    code, text = run_to_file(tmp_path, "opt.json.out",
                             ["optimize", "--input", str(path), "--format", "json",
                              "--n", "100"])
    assert code == EXIT_OK
    doc = json.loads(text)
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["w_size"] == 1
    # a single constant W synthesizes an independent target exactly
    assert row["i_wu"] == pytest.approx(0.0, abs=1e-9)
    dec = doc["extra"]["decomposition"]
    assert len(dec["p_u"]) == 2 and len(dec["w_given_u"][0]) == 1


# =============================================================================
# round-trip and stdout
# =============================================================================


def test_round_trip_reproduces_bytes(tmp_path, chain_file, sim_file):
    cases = [
        ("r.csv", ["region", "--input", chain_file, "--n", "4,8", "--eps", "0.2"]),
        ("r.json", ["region", "--input", chain_file, "--n", "4,8", "--format", "json"]),
        ("s.json", ["simulate", "--input", sim_file, "--format", "json"]),
        ("s.csv", ["simulate", "--input", sim_file, "--format", "csv"]),
        ("t.csv", ["tradeoff", "--n", "256"]),
    ]
    for name, argv in cases:
        code, text = run_to_file(tmp_path, name, argv)
        assert code == EXIT_OK, argv
        config, _, _ = read_table(text)
        assert render_output(config) == text, argv


def test_stdout_default(capsys, chain_file):
    assert main(["region", "--input", chain_file, "--n", "8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("# config: ")


def test_missing_subcommand_invalid():
    assert main([]) == EXIT_INVALID


# =============================================================================
# exit codes: ill-typed input files against internal errors
# =============================================================================

SIM_DOC = {"decomposition": SKEWED, "n": 2, "trials": 2}
NP_DOC = {"p": [0.5, 0.5], "q": [0.25, 0.75], "alpha": 0.3}
OPT_DOC = {"target_uv": [[0.45, 0.05], [0.05, 0.45]], "w_size": 2, "restarts": 1}


@pytest.mark.parametrize("argv, doc", [
    (["np"], {**NP_DOC, "p": 5}),
    (["np"], {**NP_DOC, "gamma_grid": 3}),
    (["region", "--n", "8"], {**CHAIN, "p_u": {"a": 1}}),
    (["simulate"], {**SIM_DOC, "n": [2]}),
    (["simulate"], {**SIM_DOC, "gamma_rule": 5}),
    (["optimize", "--n", "100"], {**OPT_DOC, "target_uv": 3}),
    (["optimize", "--n", "100"], {**OPT_DOC, "w_size": [2]}),
    (["tradeoff", "--n", "64"], {"xs": 7}),
    (["simulate"], {**SIM_DOC, "n": 2.5}),
    (["simulate"], {**SIM_DOC, "seed": 7.5}),
    (["simulate"], {**SIM_DOC, "trials": 2.5}),
    (["optimize", "--n", "100"], {**OPT_DOC, "w_size": 2.5}),
    (["optimize", "--n", "100"], {**OPT_DOC, "restarts": 1.5}),
    (["np"], {**NP_DOC, "p": [0.5, 10 ** 400]}),
    (["region", "--n", "8"], {**CHAIN, "w_given_u": [[1.0, 0.0], [1.0]]}),
    (["region", "--n", "8", "--gamma-rule", "linear:abc"], CHAIN),
    (["region", "--n", ","], CHAIN),
    (["clt", "--n", ""], CHAIN),
], ids=["np-p", "np-gamma-grid", "p_u", "sim-n", "sim-gamma-rule", "opt-target",
        "opt-w-size", "tradeoff-xs", "sim-n-fraction", "sim-seed-fraction",
        "sim-trials-fraction", "opt-w-size-fraction", "opt-restarts-fraction",
        "np-p-beyond-float", "ragged-w-given-u", "gamma-rule-not-numeric",
        "region-no-blocklength", "clt-no-blocklength"])
def test_ill_typed_input_is_invalid(tmp_path, capsys, argv, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert main(argv + ["--input", str(path)]) == EXIT_INVALID
    assert "invalid parameters" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["region", "simulate"])
def test_logn_rule_at_one_letter_names_the_rule(capsys, chain_file, sim_file, sub):
    # simulate parses the rule for its JSON report only; the CSV trace reads no gamma
    path, fmt = (chain_file, "csv") if sub == "region" else (sim_file, "json")
    assert main([sub, "--input", path, "--n", "1", "--format", fmt]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "coordsim: invalid parameters: gamma rule 'logn' needs blocklength n >= 2, got 1; "
        "the rule 'fixed:a,b,c' (flag --gamma a,b,c) works at n = 1\n")
    assert main([sub, "--input", path, "--n", "1", "--gamma", "1,1,1",
                 "--output", path + ".out"]) == EXIT_OK


def test_optimize_negative_seed_is_invalid(tmp_path, capsys):
    # with two restarts the seed reaches numpy's generator; it is still a
    # parameter error (exit 3), not an internal one with a traceback
    path = tmp_path / "in.json"
    path.write_text(json.dumps({**OPT_DOC, "restarts": 2}))
    assert main(["optimize", "--input", str(path), "--n", "100", "--seed", "-1"]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "seed must be a 64-bit unsigned integer, got -1" in err
    assert "Traceback" not in err


def test_optimize_null_objective_is_reported_as_null(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({**OPT_DOC, "objective": None}))
    assert main(["optimize", "--input", str(path), "--n", "100"]) == EXIT_INVALID
    assert "objective must be one of ('r_min', 'r_plus_r0_min', 'max_slack'), got None" in (
        capsys.readouterr().err)


def test_undecodable_input_is_io_error(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["region", "--input", str(path), "--n", "8"]) == EXIT_IO
    assert "unreadable input file" in capsys.readouterr().err


def test_integral_floats_are_stored_as_ints(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({**SIM_DOC, "n": 2.0, "seed": 3.0, "trials": 2.0}))
    code, text = run_to_file(tmp_path, "s.json", ["simulate", "--input", str(path),
                                                  "--format", "json"])
    assert code == EXIT_OK
    config, _, _ = read_table(text)
    assert [config[k] for k in ("n", "seed", "trials")] == [2, 3, 2]
    assert all(type(config[k]) is int for k in ("n", "seed", "trials"))


def test_internal_type_error_is_not_a_usage_error(monkeypatch, chain_file):
    # a bug inside the computation must surface as itself, not as exit 3
    def broken(config):
        raise TypeError("internal bug")

    monkeypatch.setattr("coordsim.cli.render_output", broken)
    with pytest.raises(TypeError, match="internal bug"):
        main(["region", "--input", chain_file, "--n", "8"])


@pytest.mark.parametrize("error", [ValueError, CoordsimError])
def test_internal_value_error_is_not_a_usage_error(monkeypatch, chain_file, error):
    # neither a plain ValueError nor a bare CoordsimError (an invariant, as
    # in the Neyman-Pearson solver) is a user error: both propagate
    def broken(config):
        raise error("internal bug")

    monkeypatch.setattr("coordsim.cli.render_output", broken)
    with pytest.raises(error, match="internal bug"):
        main(["region", "--input", chain_file, "--n", "8"])


# =============================================================================
# the exact stderr line of each kind of rejected invocation
# =============================================================================

# (argv, input document or raw text -- None for a missing file, exit code,
# stderr line after "coordsim: "); every argv reads in.json or missing.json
ERROR_LINES = [
    (["region", "--n", "8"], [1, 2], EXIT_INVALID,
     "invalid parameters: decomposition must be a JSON object"),
    (["region", "--n", "8"], {"p_u": [1.0], "v_given_w": [[1.0]]}, EXIT_INVALID,
     "invalid parameters: decomposition JSON is missing 'w_given_u'"),
    (["simulate"], {"n": 2}, EXIT_INVALID,
     "invalid parameters: simulate input JSON needs a 'decomposition' key"),
    (["np"], {"p": [0.5, 0.5]}, EXIT_INVALID,
     "invalid parameters: np input JSON needs 'p' and 'q' keys"),
    (["tradeoff", "--n", "64"], {}, EXIT_INVALID,
     "invalid parameters: tradeoff input JSON needs an 'xs' key"),
    (["optimize"], {"w_size": 2}, EXIT_INVALID,
     "invalid parameters: optimize input JSON needs 'target_uv' and 'w_size' keys"),
    (["np"], {"p": [0.5, 0.5], "q": [0.5, 0.5]}, EXIT_INVALID,
     "invalid parameters: np needs an alpha (file key 'alpha' or flag --eps)"),
    (["region", "--n", "8"], {**CHAIN, "w_given_u": [[1.0, 0.0], [1.0]]}, EXIT_INVALID,
     "invalid parameters: w_given_u rows must have equal lengths, got [2, 1]"),
    (["region", "--n", "8,x"], CHAIN, EXIT_INVALID,
     "invalid parameters: expected comma-separated integers, got '8,x'"),
    (["region", "--n", "8", "--frobnicate"], CHAIN, EXIT_INVALID,
     "invalid parameters: unrecognized arguments: --frobnicate"),
    (["np"], {**NP_DOC, "p": [True, 0.5]}, EXIT_INVALID,
     "invalid parameters: p must be a number, got True"),
    (["simulate"], {**SIM_DOC, "n": 2.5}, EXIT_INVALID,
     "invalid parameters: n must be a whole number >= 1 and < 2^64, got 2.5"),
    (["region", "--n", "8"], "{not json", EXIT_IO,
     "unreadable input file: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    (["region", "--n", "8"], None, EXIT_IO,
     "[Errno 2] No such file or directory: 'missing.json'"),
    ([], CHAIN, EXIT_INVALID,
     "invalid parameters: the following arguments are required: subcommand"),
    (["region", "--n", "8", "--gamma", "1,1,1", "--gamma-rule", "logn"], CHAIN, EXIT_INVALID,
     "invalid parameters: argument --gamma-rule: not allowed with argument --gamma"),
]


@pytest.mark.parametrize("argv, doc, code, line", ERROR_LINES, ids=[
    "not-an-object", "missing-kernel", "simulate-keys", "np-keys", "tradeoff-keys",
    "optimize-keys", "np-alpha", "ragged", "bad-n-token", "unknown-flag", "bool-in-p",
    "fractional-n", "malformed-json", "missing-file", "no-subcommand", "two-gamma-flags"])
def test_error_line(tmp_path, monkeypatch, capsys, argv, doc, code, line):
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        (tmp_path / "in.json").write_text(doc if isinstance(doc, str) else json.dumps(doc))
    if argv:
        argv = argv + ["--input", "missing.json" if doc is None else "in.json"]
    assert main(argv) == code
    assert capsys.readouterr().err == f"coordsim: {line}\n"

